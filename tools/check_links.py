#!/usr/bin/env python3
"""Check intra-repo markdown links.

Usage: check_links.py FILE.md [FILE.md ...]
       check_links.py --self-test

For every inline markdown link in the given files:
  * external schemes (http/https/mailto) are ignored,
  * relative paths must exist on disk (resolved against the linking file),
  * #fragments pointing into a markdown file must match one of its
    headings (GitHub anchor slug rules).
Exits non-zero listing every broken link.  --self-test checks the slug
rules against pinned GitHub anchors instead.  Stdlib only.
"""
import re
import sys
from pathlib import Path

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE = re.compile(r"```.*?```", re.S)
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.M)
# A code span (kept as written) or a run of underscores.
CODE_OR_UNDERSCORES = re.compile(r"(`+).*?\1|_+")

# (heading, the anchor GitHub gives it)
SLUG_CASES = [
    ("**Bold** _x_", "bold-x"),
    ("snake_case and __init__", "snake_case-and-init"),
    ("*Design.* Keep it simple", "design-keep-it-simple"),
    ("`frame_dirty_end_` stays", "frame_dirty_end_-stays"),
    ("Where the time goes (re-anchored after PR 25)",
     "where-the-time-goes-re-anchored-after-pr-25"),
    ("`bench_gauntlet` → `BENCH_gauntlet.json`", "bench_gauntlet--bench_gauntletjson"),
]


def drop_emphasis(heading: str) -> str:
    """The heading's text with `_` emphasis markers removed, as GitHub
    renders it: an underscore run is a marker unless letters or digits
    stand on both sides of it (snake_case), and code spans are literal.
    An unpaired marker would render literally; headings here have none.
    `*` markers need no care: the slug drops every `*`."""
    def keep(m: re.Match) -> str:
        if m.group(1):
            return m.group(0)
        start, end = m.span()
        inside_word = (start > 0 and heading[start - 1].isalnum()
                       and end < len(heading) and heading[end].isalnum())
        return m.group(0) if inside_word else ""
    return CODE_OR_UNDERSCORES.sub(keep, heading)


def slugify(heading: str) -> str:
    """GitHub-style anchor slug of a heading: emphasis markers dropped,
    lower case, punctuation dropped except `-` and `_`, and each space
    turned into a `-`."""
    slug = drop_emphasis(heading.strip()).lower()
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def self_test() -> int:
    failures = [(h, want, slugify(h)) for h, want in SLUG_CASES if slugify(h) != want]
    for heading, want, got in failures:
        print(f"slugify({heading!r}) = {got!r}, want {want!r}", file=sys.stderr)
    if not failures:
        print(f"slugify self-test: {len(SLUG_CASES)} cases pass")
    return 1 if failures else 0


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
    if argv[1:] == ["--self-test"]:
        return self_test()
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
