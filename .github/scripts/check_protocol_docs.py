#!/usr/bin/env python3
"""Docs-drift check, both ways: every wire op and stable error kind in the
source must appear in docs/PROTOCOL.md, and everything PROTOCOL.md documents
as an op, an HTTP route, an error kind or a `stats` field must exist in the
source.

The protocol document is the public contract; this script extracts the
contract surface directly from the source so a new op or error kind cannot
land undocumented:

* wire op names from the `handle_wire` dispatch in
  crates/service/src/service.rs (`op == "..."` match guards),
* service error kinds from `ServiceError::kind` in
  crates/service/src/error.rs and resource kinds from `ResourceError::kind`
  in crates/guard/src/lib.rs (`=> "..."` match arms),
* the HTTP-layer kind from `http_error_json` in
  crates/service/src/http.rs.

Each extracted name must appear in docs/PROTOCOL.md as the inline-code
token `` `name` `` (backticked, the way the document writes every op and
kind). In the other direction:

* every ``### `op` `` heading under `## Ops` must be an op of `handle_wire`,
* every path in the `## HTTP surface` table must be a string literal in
  `respond` in crates/service/src/http.rs,
* every `` | `kind` | `` row of the `## Errors` table must be an extracted
  error kind,
* every backticked snake_case token in the ``### `stats` `` section must be
  a key literal of `ServiceStats::to_json` in crates/service/src/stats.rs,
  and every such key must be documented there,

so a section, route, kind or field left behind by a removed one fails the
check too.
Run from the repository root: python3 .github/scripts/check_protocol_docs.py
"""

import re
import sys


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def extract_fn(source, name):
    """The body of `fn name` up to the next `fn ` at the same file level —
    crude but stable for the small match-arm functions we scan."""
    at = source.index(f"fn {name}")
    rest = source[at:]
    nxt = rest.find("\n    pub fn ", 1)
    if nxt == -1:
        nxt = rest.find("\nfn ", 1)
    return rest if nxt == -1 else rest[:nxt]


def method_body(source, signature):
    """The body of the method declared by `signature`, up to the closing
    brace at method indentation."""
    at = source.index(signature)
    return source[at : source.index("\n    }\n", at)]


def section(markdown, heading):
    """The body of the `## heading` section, up to the next `## ` heading."""
    at = markdown.index(f"\n## {heading}\n")
    rest = markdown[at + len(heading) + 5 :]
    nxt = rest.find("\n## ")
    return rest if nxt == -1 else rest[:nxt]


def main():
    ops = set()
    service_rs = read("crates/service/src/service.rs")
    handle_wire = extract_fn(service_rs, "handle_wire")
    ops.update(re.findall(r'op == "(\w+)"', handle_wire))
    assert ops, "no wire ops extracted from handle_wire — did the dispatch move?"

    kinds = set()
    error_rs = read("crates/service/src/error.rs")
    kinds.update(re.findall(r'=> "(\w+)"', extract_fn(error_rs, "kind")))
    guard_rs = read("crates/guard/src/lib.rs")
    kinds.update(re.findall(r'=> "(\w+)"', extract_fn(guard_rs, "kind")))
    http_rs = read("crates/service/src/http.rs")
    kinds.update(re.findall(r'"kind", Json::str\("(\w+)"\)', extract_fn(http_rs, "http_error_json")))
    assert kinds, "no error kinds extracted — did the kind() functions move?"

    docs = read("docs/PROTOCOL.md")
    missing = []
    for name in sorted(ops):
        if f"`{name}`" not in docs:
            missing.append(f"wire op `{name}`")
    for name in sorted(kinds):
        if f"`{name}`" not in docs:
            missing.append(f"error kind `{name}`")
    if missing:
        sys.exit(
            "docs/PROTOCOL.md is out of date, missing: "
            + ", ".join(missing)
            + "\n(every wire op and stable error kind must be documented)"
        )

    documented_ops = re.findall(r"^### `(\w+)`", section(docs, "Ops"), re.M)
    assert documented_ops, "no ### `op` headings under ## Ops — did the section move?"
    respond = extract_fn(http_rs, "respond")
    documented_paths = [
        path
        for row in section(docs, "HTTP surface").splitlines()
        if row.startswith("|")
        for path in re.findall(r"`(/[^`]*)`", row)
    ]
    assert documented_paths, "no paths in the ## HTTP surface table — did it move?"
    documented_kinds = re.findall(r"^\| `(\w+)` \|", section(docs, "Errors"), re.M)
    assert documented_kinds, "no | `kind` | rows under ## Errors — did the table move?"
    stats_doc = section(docs, "Ops").split("\n### `stats`\n", 1)[1].split("\n### ", 1)[0]
    stats_doc = re.sub(r"^```.*?^```", "", stats_doc, flags=re.M | re.S)
    documented_fields = set(re.findall(r"`([a-z][a-z0-9_]*)`", stats_doc))
    stats_rs = read("crates/service/src/stats.rs")
    to_json = method_body(stats_rs, "pub fn to_json(&self)")
    fields = set(re.findall(r'\(\s*"([a-z][a-z0-9_]*)",', to_json))
    assert fields, "no key literals in ServiceStats::to_json — did it move?"
    stale = [f"op section `{op}`" for op in documented_ops if op not in ops]
    stale += [f"HTTP path `{path}`" for path in documented_paths if f'"{path}"' not in respond]
    stale += [f"error kind row `{kind}`" for kind in documented_kinds if kind not in kinds]
    stale += [f"stats field `{name}`" for name in sorted(documented_fields - fields)]
    if stale:
        sys.exit(
            "docs/PROTOCOL.md documents what the source no longer has: "
            + ", ".join(stale)
            + "\n(every documented op must be a handle_wire op, every documented"
            " path a route in http.rs `respond`, every error row a stable kind,"
            " every `stats` field a key of ServiceStats::to_json)"
        )
    undocumented = sorted(fields - documented_fields)
    if undocumented:
        sys.exit(
            "docs/PROTOCOL.md ### `stats` is missing fields of ServiceStats::to_json: "
            + ", ".join(f"`{name}`" for name in undocumented)
        )
    print(
        f"docs/PROTOCOL.md OK: covers {len(ops)} wire ops "
        f"({', '.join(sorted(ops))}) and {len(kinds)} error kinds "
        f"({', '.join(sorted(kinds))}); documents {len(documented_ops)} op sections, "
        f"{len(documented_paths)} HTTP paths, {len(documented_kinds)} error kinds and "
        f"{len(documented_fields)} stats fields, all in the source"
    )


if __name__ == "__main__":
    main()
