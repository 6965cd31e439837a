"""Independent reference implementations used to cross-check the package.

These are deliberately naive: textbook formulas, brute-force enumeration,
flat data structures. They share no code with the implementations under test.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

NULL = "<NULL>"


def em_model1_reference(pairs, iterations, use_null):
    """Textbook IBM Model 1 EM over a flat (e, f)-keyed table.

    Returns (t, log_likelihoods) where t maps (e, f) -> probability.
    """
    sents = []
    for src, tgt in pairs:
        es = [NULL, *src] if use_null else list(src)
        sents.append((es, list(tgt)))

    cooc = defaultdict(set)
    for es, fs in sents:
        for e in es:
            cooc[e].update(fs)
    t = {}
    for e, fset in cooc.items():
        for f in fset:
            t[(e, f)] = 1.0 / len(fset)

    lls = []
    for _ in range(iterations):
        count = defaultdict(float)
        total = defaultdict(float)
        ll = 0.0
        for es, fs in sents:
            for f in fs:
                z = sum(t[(e, f)] for e in es)
                ll += math.log(z) - math.log(len(es))
                for e in es:
                    delta = t[(e, f)] / z
                    count[(e, f)] += delta
                    total[e] += delta
        lls.append(ll)
        t = {(e, f): c / total[e] for (e, f), c in count.items()}
    return t, lls


def em_model2_reference(pairs, iterations, use_null):
    """Textbook IBM Model 2 EM over flat tables: t keyed by (e, f), q keyed
    by (i, j, l, m) with NULL at source position -1.

    Returns (t, q, log_likelihoods).
    """
    sents = []
    for src, tgt in pairs:
        es = [NULL, *src] if use_null else list(src)
        positions = [-1, *range(len(src))] if use_null else list(range(len(src)))
        sents.append((list(zip(es, positions)), list(tgt), len(src)))

    cooc = defaultdict(set)
    for candidates, fs, _ in sents:
        for e, _ in candidates:
            cooc[e].update(fs)
    t = {(e, f): 1.0 / len(fset) for e, fset in cooc.items() for f in fset}
    q = {}
    for candidates, fs, l in sents:
        for j in range(len(fs)):
            for _, i in candidates:
                q[(i, j, l, len(fs))] = 1.0 / len(candidates)

    lls = []
    for _ in range(iterations):
        count = defaultdict(float)
        total = defaultdict(float)
        qcount = defaultdict(float)
        qtotal = defaultdict(float)
        ll = 0.0
        for candidates, fs, l in sents:
            m = len(fs)
            for j, f in enumerate(fs):
                z = sum(t[(e, f)] * q[(i, j, l, m)] for e, i in candidates)
                ll += math.log(z)
                for e, i in candidates:
                    delta = t[(e, f)] * q[(i, j, l, m)] / z
                    count[(e, f)] += delta
                    total[e] += delta
                    qcount[(i, j, l, m)] += delta
                    qtotal[(j, l, m)] += delta
        lls.append(ll)
        t = {(e, f): c / total[e] for (e, f), c in count.items()}
        q = {(i, j, l, m): c / qtotal[(j, l, m)] for (i, j, l, m), c in qcount.items()}
    return t, q, lls


def viterbi_reference(src, tgt, t, use_null, floor=1e-12):
    """Argmax link per target token; NULL is virtual source index -1."""
    candidates = ([(-1, NULL)] if use_null else []) + list(enumerate(src))
    links = set()
    for j, f in enumerate(tgt):
        best = None
        for i, e in candidates:
            p = max(t.get((e, f), 0.0), floor)
            if best is None or p > best[0]:
                best = (p, i)
        if best is not None and best[1] >= 0:
            links.add((best[1], j))
    return links


def consistent_phrase_pairs_reference(src, tgt, links, max_len):
    """Brute-force enumeration of every consistent box up to max_len."""
    n, m = len(src), len(tgt)
    out = []
    for i1 in range(n):
        for i2 in range(i1, min(i1 + max_len, n)):
            for j1 in range(m):
                for j2 in range(j1, min(j1 + max_len, m)):
                    has_inside = any(
                        i1 <= i <= i2 and j1 <= j <= j2 for i, j in links
                    )
                    if not has_inside:
                        continue
                    crossing = any(
                        (i1 <= i <= i2) != (j1 <= j <= j2) for i, j in links
                    )
                    if crossing:
                        continue
                    out.append((tuple(src[i1 : i2 + 1]), tuple(tgt[j1 : j2 + 1])))
    return out


def average_precision_reference(flags, n):
    """Eq-style AveP: mean over gold pairs of precision at first retrieval.

    `flags[r]` is True when rank r+1 first retrieves some gold pair; gold
    pairs never retrieved contribute zero. Exact rational arithmetic.
    """
    precision_at = []
    hits = 0
    for rank, flag in enumerate(flags, start=1):
        hits += int(flag)
        precision_at.append(Fraction(hits, rank))
    total = Fraction(0)
    for rank, flag in enumerate(flags, start=1):
        if flag:
            total += precision_at[rank - 1]
    return total / n


def curve11_reference(flags, n):
    """Interpolated precision at the 11 standard recall levels, from scratch."""
    recalls = []
    precisions = []
    hits = 0
    for rank, flag in enumerate(flags, start=1):
        hits += int(flag)
        recalls.append(Fraction(hits, n))
        precisions.append(Fraction(hits, rank))
    curve = []
    for tenth in range(11):
        level = Fraction(tenth, 10)
        best = Fraction(0)
        for recall, precision in zip(recalls, precisions):
            if recall >= level and precision > best:
                best = precision
        curve.append(best)
    return tuple(curve)


def longest_match_counts_reference(sentences, forms):
    """Greedy longest-match occurrence counting, one position at a time."""
    counts = {tuple(form): 0 for form in forms}
    for tokens in sentences:
        tokens = [t.lower() for t in tokens]
        i = 0
        while i < len(tokens):
            best = None
            for form in counts:
                width = len(form)
                if tuple(tokens[i : i + width]) == form:
                    if best is None or width > len(best):
                        best = form
            if best is not None:
                counts[best] += 1
                i += len(best)
            else:
                i += 1
    return counts


def fuse_reference(tokens, spans):
    """One sentence rebuilt token by token, each (start, end, relation) span
    that carries a relation replaced by its words joined with "_", then "-"
    and the relation; the spans lie in the sentence and do not overlap."""
    fused = []
    pos = 0
    for start, end, relation in sorted(spans):
        fused.extend(tokens[pos:start])
        span = tokens[start : end + 1]
        if relation is not None:
            fused.append("_".join(span) + "-" + relation)
        else:
            fused.extend(span)
        pos = end + 1
    fused.extend(tokens[pos:])
    return tuple(fused)


def scan_matches_reference(tokens, table):
    """The scan `corpus.FormScan` makes on ids, as a loop over every
    position of one token list: (start, form) of each non-overlapping
    longest match, left to right. `table` maps a first token to its forms,
    longest first."""
    i = 0
    n = len(tokens)
    while i < n:
        for form in table.get(tokens[i], ()):
            if i + len(form) <= n and tuple(tokens[i : i + len(form)]) == form:
                yield i, form
                i += len(form)
                break
        else:
            i += 1


_NEIGHBORS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def first_appearance_reference(chunks):
    """The slot of each key of `chunks`, chunk after chunk, slots numbered in
    order of first appearance; and the keys in slot order."""
    slot_of = {}
    slots = [slot_of.setdefault(key, len(slot_of)) for chunk in chunks for key in chunk]
    return slots, list(slot_of)


def format_alignments_reference(link_sets):
    """The link file text of `link_sets`: one line per pair, its links
    formatted one by one as `i-j`, ascending, joined by spaces."""
    return "".join(" ".join(f"{i}-{j}" for i, j in sorted(links)) + "\n" for links in link_sets)


def symmetrize_reference(fwd, bwd, heuristic):
    """Combine one pair's forward and backward link sets, set by set.

    `bwd` must already be transposed into (src, tgt) orientation.
    grow-diag-final: start from the intersection; repeatedly add union links
    8-adjacent to the current set while either endpoint is unaligned; finish
    with one pass adding union links with an unaligned src or tgt endpoint.
    Scans go in ascending (src, tgt) order and take effect immediately.
    """
    fwd, bwd = frozenset(fwd), frozenset(bwd)
    if heuristic == "intersection":
        return fwd & bwd
    if heuristic == "union":
        return fwd | bwd

    union = sorted(fwd | bwd)
    links = set(fwd & bwd)
    src_aligned = {i for i, _ in links}
    tgt_aligned = {j for _, j in links}

    def adopt(i: int, j: int) -> None:
        links.add((i, j))
        src_aligned.add(i)
        tgt_aligned.add(j)

    changed = True
    while changed:
        changed = False
        for i, j in union:
            if (i, j) in links:
                continue
            if i in src_aligned and j in tgt_aligned:
                continue
            if any((i + di, j + dj) in links for di, dj in _NEIGHBORS):
                adopt(i, j)
                changed = True
    for i, j in union:
        if (i, j) not in links and (i not in src_aligned or j not in tgt_aligned):
            adopt(i, j)
    return frozenset(links)


def connective_sources_reference(pairs, link_sets, forms, max_len):
    """Yield (pair, start, form, source) for each greedy longest-match
    occurrence of `forms` in each lowercased target, pair by pair, with the
    per-pair loop over link dicts: `source` is the one source token linked
    into the span when all of its links lie inside, else None (also for a
    form longer than `max_len`)."""
    forms = sorted({tuple(form) for form in forms}, key=len, reverse=True)
    for k, ((_, tgt), links) in enumerate(zip(pairs, link_sets)):
        tokens = [t.lower() for t in tgt]
        sources_of, targets_of = {}, {}
        for i, j in links:
            sources_of.setdefault(j, set()).add(i)
            targets_of.setdefault(i, []).append(j)
        start = 0
        while start < len(tokens):
            form = next((f for f in forms if tuple(tokens[start : start + len(f)]) == f), None)
            if form is None:
                start += 1
                continue
            end = start + len(form) - 1
            linked = {i for j in range(start, end + 1) for i in sources_of.get(j, ())}
            consistent = len(form) <= max_len and len(linked) == 1 and all(
                start <= j <= end for i in linked for j in targets_of[i]
            )
            yield k, start, form, (min(linked) if consistent else None)
            start = end + 1


def connective_boxes_reference(pair, links, forms, max_len):
    """`connective_sources_reference` of one pair, each source taken instead
    from exhaustive consistent-box enumeration: the source token of the one
    consistent box with one source token over exactly the occurrence span."""
    n, m = len(pair[0]), len(pair[1])
    boxes = {
        (tgt[0], tgt[-1]): src[0]
        for src, tgt in consistent_phrase_pairs_reference(range(n), range(m), links, max_len)
        if len(src) == 1
    }
    return [
        (k, start, form, boxes.get((start, start + len(form) - 1)))
        for k, start, form, _ in connective_sources_reference([pair], [links], forms, max_len)
    ]
