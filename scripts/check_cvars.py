#!/usr/bin/env python3
"""Check that the docs and the code name the same MPX_* environment variables.

    python3 scripts/check_cvars.py [ROOT]

ROOT defaults to the checkout holding this script. Two rules:

1. Every string literal in src/ or include/ that is exactly an MPX_* name
   appears in some docs/*.md, so no switch the library reads is secret.
2. A name the code does not read may not be documented as a setting: not
   in the first column of a docs/tuning.md table, and not as an `MPX_NAME=`
   shell assignment in docs/*.md or README.md. Names declared by
   `option(MPX_...)` in a CMakeLists.txt are CMake options, not env
   variables, and are skipped.

A name counts as read when its literal sits in src/, include/ or bench/
inside a function that something calls. The enclosing function is the
nearest column-0 definition above the literal (the tree is formatted with
namespace bodies unindented); it is called when its name appears on any
line of the tree other than its definition and plain declarations. A
reader nothing calls -- the way the environment layer of an unused config
factory would be -- reads nothing.

Exit status 0 when clean, 1 with one line per finding otherwise.
"""
import re
import sys
from pathlib import Path

NAME = re.compile(r"MPX_[A-Z0-9_]+")
LITERAL = re.compile(r'"(MPX_[A-Z0-9_]+)"')
ASSIGN = re.compile(r"(?<![\w-])(MPX_[A-Z0-9_]+)=")
OPTION = re.compile(r"option\(\s*(MPX_[A-Z0-9_]+)")
# A column-0 line that opens a function definition: not a comment,
# preprocessor line, closing brace or type/namespace declaration.
NOT_FUNC = re.compile(r"(//|/\*|\*|#|}|namespace\b|class\b|struct\b|union\b|"
                      r"enum\b|template\b|using\b|typedef\b|extern\b|"
                      r"static_assert\b)")
CALLEE = re.compile(r"(\w+)\s*\(")
KEYWORDS = {"return", "co_return", "throw", "else", "case", "new", "delete"}
CODE_DIRS = ("src", "include", "bench", "tests", "examples", "tools")
SUFFIXES = {".cpp", ".hpp", ".h", ".c", ".cc"}


def sources(root, dirs):
    for d in dirs:
        for p in sorted((root / d).rglob("*")):
            if p.suffix in SUFFIXES and p.is_file():
                yield p, p.read_text(errors="replace").splitlines()


def enclosing_function(lines, i):
    """Name of the function whose definition encloses line i, or None when
    the line is at namespace or class scope."""
    for j in range(i, -1, -1):
        line = lines[j]
        if not line or line[0].isspace():
            continue
        if NOT_FUNC.match(line) or "(" not in line:
            return None
        m = CALLEE.search(line)
        return m.group(1) if m else None
    return None


def is_declaration(line, name):
    """A definition or plain declaration of `name` rather than a use: a type
    then the name, at the start of the statement (`T name(...)`)."""
    m = re.match(r"\s*(?:[\w:<>,]+[\s*&]+)+(?:\w+::)*" + name + r"\s*\(",
                 line)
    return bool(m) and m.group(0).split()[0] not in KEYWORDS


def read_names(root):
    """MPX_* names whose literal sits in a called function of src/,
    include/ or bench/."""
    readers = {}  # name -> enclosing function names (None = any scope)
    for _, lines in sources(root, ("src", "include", "bench")):
        for i, line in enumerate(lines):
            for name in LITERAL.findall(line):
                readers.setdefault(name, set()).add(
                    enclosing_function(lines, i))
    wanted = {f for fs in readers.values() for f in fs if f}
    called = set()
    for _, lines in sources(root, CODE_DIRS):
        for line in lines:
            if line.lstrip().startswith("//"):
                continue
            for f in wanted - called:
                if re.search(r"\b" + f + r"\b", line) and \
                        not is_declaration(line, f):
                    called.add(f)
    return {n for n, fs in readers.items()
            if any(f is None or f in called for f in fs)}


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else
                Path(__file__).resolve().parents[1])
    docs = {p: p.read_text() for p in sorted((root / "docs").glob("*.md"))}
    readme = root / "README.md"
    cmake_files = [root / "CMakeLists.txt"]
    for d in CODE_DIRS:
        cmake_files += (root / d).rglob("CMakeLists.txt")
    options = set()
    for p in cmake_files:
        if p.is_file():
            options |= set(OPTION.findall(p.read_text()))

    findings = []
    doc_words = set()
    for text in docs.values():
        doc_words |= set(NAME.findall(text))
    literals = set()
    for _, lines in sources(root, ("src", "include")):
        for line in lines:
            literals |= set(LITERAL.findall(line))
    for name in sorted(literals - doc_words):
        findings.append(f"{name}: read in src/include but in no docs/*.md")

    read = read_names(root)
    documented = {}  # name -> first place it is documented as a setting
    tuning = docs.get(root / "docs" / "tuning.md", "")
    for n, line in enumerate(tuning.splitlines(), 1):
        if line.startswith("|"):
            first = line.split("|")[1]
            for name in NAME.findall(first):
                documented.setdefault(name, f"docs/tuning.md:{n}")
    for p, text in [*docs.items(),
                    (readme, readme.read_text() if readme.is_file() else "")]:
        for n, line in enumerate(text.splitlines(), 1):
            for name in ASSIGN.findall(line):
                documented.setdefault(name, f"{p.relative_to(root)}:{n}")
    for name in sorted(set(documented) - read - options):
        findings.append(f"{name}: documented at {documented[name]} but "
                        f"nothing reads it")

    for f in findings:
        print(f)
    if findings:
        print(f"check_cvars: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print(f"check_cvars: {len(read)} env names read, docs agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
