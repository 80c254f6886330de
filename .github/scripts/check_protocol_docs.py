#!/usr/bin/env python3
"""Docs-drift check, both ways: every wire op, stable error kind, operator
tag, expression tag and wire enum name in the source must appear in
docs/PROTOCOL.md, and everything PROTOCOL.md documents as an op, an HTTP
route, an error kind, a `stats` field, an operator or expression tag or an
enum name must exist in the source.

The protocol document is the public contract; this script extracts the
contract surface directly from the source so a new op or error kind cannot
land undocumented:

* wire op names from the `handle_wire` dispatch in
  crates/service/src/service.rs (`Some("...")` match arms),
* service error kinds from `ServiceError::kind` in
  crates/service/src/error.rs and resource kinds from `ResourceError::kind`
  in crates/guard/src/lib.rs (`=> "..."` match arms),
* the HTTP-layer kind from `http_error_json` in
  crates/service/src/http.rs,
* operator tags from the `operator_from_json` match arms and expression tags
  from the `tagged_expr_from_json` match arms (the expression decoder's tag
  dispatch) in crates/service/src/wire.rs,
* every name of every `WireNames` table in wire.rs's non-test code.

Each extracted name must appear in docs/PROTOCOL.md as the inline-code
token `` `name` `` (backticked, the way the document writes every op and
kind). In the other direction:

* every ``### `op` `` heading under `## Ops` must be an op of `handle_wire`,
* every path in the `## HTTP surface` table must be a string literal in
  `respond` in crates/service/src/http.rs,
* every `` | `kind` | `` row of the `## Errors` table must be an extracted
  error kind,
* every `` | `tag` | `` row of the `### Operators` and `### Expressions`
  tables under `## Plans` must be an operator or expression tag, and every
  backticked name in the last column of its `### Names` table a name of a
  `WireNames` table,
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


def top_level_fn(source, name):
    """The body of the top-level `fn name`, up to its closing brace."""
    at = source.index(f"fn {name}(")
    return source[at : source.index("\n}\n", at)]


def match_arm_tags(body):
    """The string literals of the match-arm patterns (`"a" | "b" =>`)."""
    tags = set()
    for pattern in re.findall(r'^\s*((?:"\w+"\s*\|\s*)*"\w+")\s*=>', body, re.M):
        tags.update(re.findall(r'"(\w+)"', pattern))
    return tags


def subsection(markdown, heading):
    """The body of the `### heading` subsection, up to the next heading."""
    rest = markdown.split(f"\n### {heading}\n", 1)[1]
    return re.split(r"\n##+ ", rest, maxsplit=1)[0]


def section(markdown, heading):
    """The body of the `## heading` section, up to the next `## ` heading."""
    at = markdown.index(f"\n## {heading}\n")
    rest = markdown[at + len(heading) + 5 :]
    nxt = rest.find("\n## ")
    return rest if nxt == -1 else rest[:nxt]


def main():
    ops = set()
    service_rs = read("crates/service/src/service.rs")
    handle_wire = method_body(service_rs, "pub fn handle_wire(")
    ops.update(re.findall(r'Some\("(\w+)"\)', handle_wire))
    assert ops, "no wire ops extracted from handle_wire — did the dispatch move?"

    kinds = set()
    error_rs = read("crates/service/src/error.rs")
    kinds.update(re.findall(r'=> "(\w+)"', extract_fn(error_rs, "kind")))
    guard_rs = read("crates/guard/src/lib.rs")
    kinds.update(re.findall(r'=> "(\w+)"', extract_fn(guard_rs, "kind")))
    http_rs = read("crates/service/src/http.rs")
    kinds.update(re.findall(r'"kind", Json::str\("(\w+)"\)', extract_fn(http_rs, "http_error_json")))
    assert kinds, "no error kinds extracted — did the kind() functions move?"

    wire_rs = read("crates/service/src/wire.rs")
    operator_tags = match_arm_tags(top_level_fn(wire_rs, "operator_from_json"))
    expr_tags = match_arm_tags(top_level_fn(wire_rs, "tagged_expr_from_json"))
    assert operator_tags and expr_tags, "no operator/expression tags extracted — did the decoders move?"
    wire_names = set()
    tables = re.findall(
        r'WireNames\s*\{\s*what:\s*"[^"]+",\s*names:\s*&\[(.*?)\]',
        wire_rs[: wire_rs.index("#[cfg(test)]")],
        re.S,
    )
    for table in tables:
        wire_names.update(re.findall(r'"([^"]+)"\)', table))
    assert wire_names, "no WireNames tables extracted from wire.rs — did they move?"

    docs = read("docs/PROTOCOL.md")
    missing = []
    for what, names in [
        ("wire op", ops),
        ("error kind", kinds),
        ("operator tag", operator_tags),
        ("expression tag", expr_tags),
        ("wire name", wire_names),
    ]:
        missing += [f"{what} `{name}`" for name in sorted(names) if f"`{name}`" not in docs]
    if missing:
        sys.exit(
            "docs/PROTOCOL.md is out of date, missing: "
            + ", ".join(missing)
            + "\n(every wire op, stable error kind, operator and expression tag, and"
            " wire enum name must be documented)"
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
    plans = section(docs, "Plans")
    for heading, tags in [("Operators", operator_tags), ("Expressions", expr_tags)]:
        documented = re.findall(r"^\| `(\w+)` \|", subsection(plans, heading), re.M)
        assert documented, f"no | `tag` | rows under ### {heading} — did the table move?"
        stale += [f"{heading.lower()[:-1]} tag `{tag}`" for tag in documented if tag not in tags]
    documented_names = [
        name
        for row in subsection(plans, "Names").splitlines()
        if row.startswith("|") and not row.startswith("|---")
        for name in re.findall(r"`([^`]+)`", row.rstrip(" |").rsplit("|", 1)[1])
    ]
    assert documented_names, "no names in the ### Names table — did it move?"
    stale += [f"wire name `{name}`" for name in documented_names if name not in wire_names]
    if stale:
        sys.exit(
            "docs/PROTOCOL.md documents what the source no longer has: "
            + ", ".join(stale)
            + "\n(every documented op must be a handle_wire op, every documented"
            " path a route in http.rs `respond`, every error row a stable kind,"
            " every `stats` field a key of ServiceStats::to_json, every ## Plans"
            " tag and name one the wire decoder reads)"
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
        f"{len(documented_fields)} stats fields, all in the source; covers "
        f"{len(operator_tags)} operator tags, {len(expr_tags)} expression tags and "
        f"{len(wire_names)} wire names"
    )


if __name__ == "__main__":
    main()
