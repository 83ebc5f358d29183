"""A plain-Python reference evaluator for the SPARQL algebra tree that
``ontograph_ray.store.sparql.parse`` builds.

It reads a MemoryGraphStore's triples and evaluates the tree one
solution at a time, each operator by its SPARQL 1.1 definition (§18.5,
§8.3.3 for MINUS, §18.6 for EXISTS, §18.4 for property paths): a
solution is a dict var → encoded term, a multiset is a list. It covers
the grammar the whole-query differential test generates and raises
NotImplementedError elsewhere.
"""

from __future__ import annotations

import re

from ontograph_ray.store import sparql as S


class _Error(Exception):
    """An expression error: FILTER treats it as false, BIND as unbound."""


def _compatible(m1: dict, m2: dict) -> bool:
    return all(m2[v] == t for v, t in m1.items() if v in m2)


def _match(pat, sol: dict, triples):
    for t in triples:
        new = dict(sol)
        for term, value in zip(pat, t):
            if not term.startswith("?"):
                if term != value:
                    break
            elif new.setdefault(term[1:], value) != value:
                break
        else:
            yield new


def _path(path, x, y, triples) -> list[tuple[str, str]]:
    """The (start, end) pairs of ``Path(x, path, y)`` by §18.4, as a bag;
    ``x`` / ``y`` are ground terms or None for a variable. A link matches
    triples, an inverse swaps, an alternation is a bag union, a sequence
    joins its steps on a fresh middle variable, a negated set is NOT-IN,
    and a modifier is the distinct pairs of ALP reachability, each step
    evaluated from a ground node."""
    ends = lambda a, b: x in (None, a) and y in (None, b)  # noqa: E731
    if isinstance(path, S.Link):
        return [(s, o) for s, p, o in triples if p == path.iri and ends(s, o)]
    if isinstance(path, S.NegSet):
        return [(s, o) for s, p, o in triples if p not in path.iris and ends(s, o)]
    if isinstance(path, S.Inv):
        return [(a, b) for b, a in _path(path.p, y, x, triples)]
    if isinstance(path, S.Alt):
        return [pair for p in path.ps for pair in _path(p, x, y, triples)]
    if isinstance(path, S.Seq):
        pairs, last = _path(path.ps[0], x, None, triples), len(path.ps) - 1
        for k, p in enumerate(path.ps[1:], 1):
            step = _path(p, None, y if k == last else None, triples)
            pairs = [(a, d) for a, b in pairs for c, d in step if b == c]
        return pairs
    if x is None and y is not None:  # evaluated from the ground end
        return [(a, b) for b, a in _path(S.Mod(S.Inv(path.p), path.mod), y, None, triples)]
    starts = [x] if x is not None else sorted({t for s, _, o in triples for t in (s, o)})
    out = []
    for n in starts:
        seen, todo = set(), [n]
        while todo:
            for _, b in _path(path.p, todo.pop(), None, triples):
                if b not in seen:
                    seen.add(b)
                    todo += [b] if path.mod != "?" else []
        if path.mod != "+":
            seen.add(n)
        out += [(n, b) for b in sorted(seen) if y in (None, b)]
    return out


def _lexical(term: str) -> str:
    if term.startswith("<"):
        return term[1:-1]
    return re.match(r'"((?:[^"\\]|\\.)*)"', term).group(1)


def _value(e, sol: dict) -> str:
    if e.op == "var":
        if e.args[0] not in sol:
            raise _Error
        return sol[e.args[0]]
    if e.op == "term":
        return e.args[0]
    if e.op == "STR":
        return '"' + _lexical(_value(e.args[0], sol)) + '"'
    raise NotImplementedError(e.op)


def _truth(e, sol: dict) -> bool:
    """§17.2 with errors as _Error; && / || follow the error tables."""
    if e.op in ("&&", "||"):
        vals = []
        for a in e.args:
            try:
                vals.append(_truth(a, sol))
            except _Error:
                vals.append(None)
        short = e.op == "||"
        if short in vals:
            return short
        if None in vals:
            raise _Error
        return not short
    if e.op == "!":
        return not _truth(e.args[0], sol)
    if e.op == "BOUND":
        return e.args[0].args[0] in sol
    if e.op in ("=", "!="):
        # simple literals and IRIs: RDFterm-equal is term identity
        return (_value(e.args[0], sol) == _value(e.args[1], sol)) == (e.op == "=")
    raise NotImplementedError(e.op)


def _holds(exprs, sol: dict) -> bool:
    try:
        return all(_truth(e, sol) for e in exprs)
    except _Error:
        return False


def evaluate(node, triples) -> list[dict]:
    """The solutions of ``node`` over ``triples`` ((s, p, o) strings)."""
    ev = lambda n: evaluate(n, triples)  # noqa: E731
    if isinstance(node, S.BGP):
        sols = [{}]
        for pat in node.patterns:
            if isinstance(pat[1], str):
                sols = [new for sol in sols for new in _match(pat, sol, triples)]
                continue
            # the path's own solutions, joined with the others (§18.3)
            s, _, o = pat
            ground = [None if t.startswith("?") else t for t in (s, o)]
            pairs = _path(pat[1], *ground, triples)
            sols = [new for sol in sols for new in _match((s, o), sol, pairs)]
        return sols
    if isinstance(node, S.Union):
        return [
            {v: t for v, t in sol.items() if not v.startswith("__pp")}
            for b in node.branches
            for sol in ev(b)
        ]
    if isinstance(node, S.LeftJoin):
        right, out = ev(node.opt), []
        for m1 in ev(node.child):
            hits = [
                {**m1, **m2}
                for m2 in right
                if _compatible(m1, m2) and _holds(node.exprs, {**m1, **m2})
            ]
            out += hits or [m1]
        return out
    if isinstance(node, S.Extend):
        out = []
        for sol in ev(node.child):
            try:
                sol = {**sol, node.var: _value(node.expr, sol)}
            except _Error:
                pass
            out.append(sol)
        return out
    if isinstance(node, S.Filter):
        return [sol for sol in ev(node.child) if _holds(node.exprs, sol)]
    if isinstance(node, S.Minus):
        right = ev(node.group)  # on its own: outer variables are unbound
        return [
            m1
            for m1 in ev(node.child)
            if not any(_compatible(m1, m2) and set(m1) & set(m2) for m2 in right)
        ]
    if isinstance(node, S.Exists):
        group, exprs = node.group, ()
        if isinstance(group, S.Filter):
            group, exprs = group.child, group.exprs
        right = ev(group)
        return [
            m1
            for m1 in ev(node.child)
            if any(
                _compatible(m1, m2) and _holds(exprs, {**m1, **m2}) for m2 in right
            ) != node.negated
        ]
    if isinstance(node, S.Values):
        rows = [{v: t for v, t in zip(node.cols, row) if t is not None} for row in node.rows]
        return [{**m1, **r} for m1 in ev(node.child) for r in rows if _compatible(m1, r)]
    if isinstance(node, S.Group):
        groups: dict = {}
        for sol in ev(node.child):
            groups.setdefault(tuple(sol.get(k) for k in node.keys), []).append(sol)
        out = []
        for key, sols in groups.items():
            row = {k: t for k, t in zip(node.keys, key) if t is not None}
            for op, var, alias in node.aggs:
                if op != "count":
                    raise NotImplementedError(op)
                row[alias] = len(sols) if var == "*" else sum(var in s for s in sols)
            out.append(row)
        return out
    if isinstance(node, S.Project):
        return [{v: sol[v] for v in node.vars if v in sol} for sol in ev(node.child)]
    if isinstance(node, S.Distinct):
        out = []
        for sol in ev(node.child):
            if sol not in out:
                out.append(sol)
        return out
    if isinstance(node, S.OrderBy):
        sols = ev(node.child)
        for v, desc in reversed(node.keys):
            sols.sort(key=lambda s: s.get(v, ""), reverse=desc)
        return sols
    if isinstance(node, S.Slice):
        start = node.offset or 0
        end = None if node.limit is None else start + node.limit
        return ev(node.child)[start:end]
    raise NotImplementedError(type(node).__name__)
