#!/usr/bin/env python3
"""Check intra-repo markdown links.

Usage: check_links.py FILE.md [FILE.md ...]

For every inline markdown link in the given files:
  * external schemes (http/https/mailto) are ignored,
  * relative paths must exist on disk (resolved against the linking file),
  * #fragments pointing into a markdown file must match one of its
    headings (GitHub anchor slug rules).
Exits non-zero listing every broken link.  Stdlib only.
"""
import re
import sys
from pathlib import Path

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE = re.compile(r"```.*?```", re.S)
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.M)


def slugify(heading: str) -> str:
    """GitHub-style anchor slug of a heading: lower case, punctuation
    dropped except `-` and `_`, and each space turned into a `-`."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def anchors_of(path: Path) -> set[str]:
    text = FENCE.sub("", path.read_text(encoding="utf-8"))
    return {slugify(h) for h in HEADING.findall(text)}


def check_file(md: Path) -> list[str]:
    errors = []
    text = FENCE.sub("", md.read_text(encoding="utf-8"))
    for target in LINK.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, fragment = target.partition("#")
        dest = md if not path_part else (md.parent / path_part).resolve()
        if path_part and not dest.exists():
            errors.append(f"{md}: broken link -> {target}")
            continue
        if fragment and dest.suffix == ".md" and dest.exists():
            if fragment not in anchors_of(dest):
                errors.append(f"{md}: missing anchor -> {target}")
    return errors


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    errors = []
    for name in argv[1:]:
        md = Path(name)
        if not md.exists():
            errors.append(f"{md}: file not found")
            continue
        errors.extend(check_file(md))
    for e in errors:
        print(e, file=sys.stderr)
    if not errors:
        print(f"checked {len(argv) - 1} file(s): all links resolve")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
