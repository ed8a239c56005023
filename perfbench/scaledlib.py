"""The ``lib-scaled`` input: k renamed copies of a ``.lib`` library, and the
output-tree helpers the ``lib-*`` checks use.

Every theory name of copy ``i`` gets a tag appended, such as ``Monoid`` ->
``Monoid_c03``.  Tags have one fixed width, never occur in the source
library and are pairwise distinct, so no tag is a substring of another and
undoing a copy's renaming is a plain substring removal on its names,
paths and file contents.
"""

from __future__ import annotations

import hashlib
import random
import re
from pathlib import Path

THEORY_ENTRY = re.compile(r"^theory\s+([A-Za-z_][\w'-]*)", re.MULTILINE)
TAG_WIDTH = 4  # "_c" plus two digits


def theory_names(source: str) -> list[str]:
    """Names of the ``theory`` entries of a ``.lib`` source, in order."""
    return THEORY_ENTRY.findall(source)


def draw_tags(seed: int, k: int, source: str) -> list[str]:
    """``k`` distinct fixed-width tags drawn from ``seed``, none of which
    occurs in ``source``."""
    pool = [f"_c{n:02d}" for n in range(100)]
    pool = [tag for tag in pool if tag not in source]
    if k > len(pool):
        raise ValueError(f"only {len(pool)} usable tags for {k} copies")
    return random.Random(seed).sample(pool, k)


def tag_copy(source: str, tag: str) -> str:
    """One copy of ``source`` with every theory name suffixed by ``tag``."""
    names = sorted(theory_names(source), key=len, reverse=True)
    word = re.compile(r"(?<![\w'-])(" + "|".join(map(re.escape, names)) + r")(?![\w'-])")
    return word.sub(lambda m: m.group(1) + tag, source)


def scaled_library(source: str, tags: list[str]) -> str:
    """The concatenation of one tagged copy of ``source`` per tag."""
    return "\n".join(tag_copy(source, tag) for tag in tags)


def write_scaled_library(source: str, seed: int, k: int, directory: Path) -> tuple[Path, list[str]]:
    tags = draw_tags(seed, k, source)
    path = directory / f"scaled_k{k}_s{seed}.lib"
    path.write_text(scaled_library(source, tags), encoding="utf-8")
    return path, tags


def read_tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root``, keyed by its POSIX path relative to it."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def tree_digest(tree: dict[str, bytes]) -> str:
    """Order-independent SHA-256 of a tree's paths and bytes."""
    digest = hashlib.sha256()
    for rel in sorted(tree):
        digest.update(rel.encode())
        digest.update(b"\0")
        digest.update(tree[rel])
        digest.update(b"\0")
    return digest.hexdigest()


def untag_copies(tree: dict[str, bytes], tags: list[str]) -> dict[str, dict[str, bytes]]:
    """Split a scaled output tree by copy and remove each copy's tag from
    its paths and contents.  A file whose top directory carries no tag, or
    two tags, lands under the key ``""`` so the caller sees it as stray."""
    copies: dict[str, dict[str, bytes]] = {tag: {} for tag in tags}
    copies[""] = {}
    encoded = {tag: tag.encode() for tag in tags}
    for rel, data in tree.items():
        top = rel.split("/", 1)[0]
        owners = [tag for tag in tags if tag in top]
        if len(owners) != 1:
            copies[""][rel] = data
            continue
        tag = owners[0]
        copies[tag][rel.replace(tag, "")] = data.replace(encoded[tag], b"")
    return copies
