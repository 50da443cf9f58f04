"""Query execution: parsed query -> graph algorithm -> rendered result.

The engine carries a **query-result cache** keyed on
``(query, KG version)``: results are reused verbatim while the
:class:`~repro.core.dynamic_kg.DynamicKnowledgeGraph` version stamp is
unchanged, and invalidated the moment any fact is persisted or any
window edge is added/evicted (both bump the monotonic stamp).  Trending
queries are never cached because their payload contains *stateful
transition deltas* (newly-frequent / newly-infrequent since the last
report) — replaying an old delta would differ from re-running the
report.  Entity, entity-trend, relationship, explanatory and pattern
queries are pure functions of KG state and cache safely.
"""

from __future__ import annotations

import dataclasses
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.pipeline import EntitySummary, Nous
from repro.core.statistics import GraphStatistics
from repro.errors import QueryError
from repro.mining.patterns import Pattern
from repro.mining.streaming import WindowReport
from repro.mining.support import closed_patterns
from repro.graph.algorithms import connected_components, pagerank
from repro.qa.pathsearch import RankedPath
from repro.query.model import (
    CentralityQuery,
    ComponentsQuery,
    EntityQuery,
    EntityTrendQuery,
    ExplanatoryQuery,
    PageRankQuery,
    PatternQuery,
    Query,
    RelationshipQuery,
    TrendingQuery,
)
from repro.query.parser import parse_query
from repro.query.pattern_match import PatternMatcher, parse_pattern


def _guard_payload(payload: Any) -> Any:
    """Copy a payload's top-level mutable containers.

    Cache entries and the results handed to callers must not alias each
    other's containers, or a caller's ``payload.clear()`` / ``.sort()``
    would silently poison the cache.  Lists are shallow-copied; dataclass
    payloads (e.g. ``EntitySummary``) get their list fields shallow-
    copied via ``replace``.  Element objects remain shared and are
    treated as read-only.
    """
    if isinstance(payload, list):
        return list(payload)
    if dataclasses.is_dataclass(payload) and not isinstance(payload, type):
        updates = {
            f.name: list(value)
            for f in dataclasses.fields(payload)
            if isinstance(value := getattr(payload, f.name), list)
        }
        if updates:
            return dataclasses.replace(payload, **updates)
    return payload


@dataclass
class QueryResult:
    """Uniform result wrapper for all five query classes.

    Attributes:
        query: The parsed query object.
        kind: Query class name ("trending", "entity", ...).
        payload: Class-specific result object.
        rendered: Plain-text rendering for CLI display.
        elapsed_ms: Execution time (cache lookup time on a cache hit).
        result_count: Number of result items (facts, rows, paths,
            matches, or closed frequent patterns depending on ``kind``);
            populated for every query class.
        cached: True when this result was served from the result cache.
        kg_version: KG version stamp the result was computed against.
    """

    query: Query
    kind: str
    payload: Any
    rendered: str
    elapsed_ms: float = 0.0
    result_count: int = 0
    cached: bool = False
    kg_version: int = -1


class QueryEngine:
    """Execute NL-like queries against a :class:`~repro.core.pipeline.Nous`.

    Args:
        nous: The system to query.
        cache_size: Maximum cached results (LRU eviction); 0 disables
            the cache.
        enable_cache: Master switch for result caching.
    """

    def __init__(
        self, nous: Nous, cache_size: int = 256, enable_cache: bool = True
    ) -> None:
        self.nous = nous
        self.cache_size = cache_size
        self.enable_cache = enable_cache and cache_size > 0
        # query -> (kg_version, result); LRU via OrderedDict move_to_end
        self._cache: "OrderedDict[Query, Tuple[int, QueryResult]]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    def execute_text(self, text: str) -> QueryResult:
        """Parse and execute one query string."""
        return self.execute(parse_query(text))

    def execute(self, query: Query) -> QueryResult:
        """Execute a parsed query, consulting the result cache first."""
        start = time.perf_counter()
        cacheable = self.enable_cache and not isinstance(query, TrendingQuery)
        version = self.nous.dynamic.version
        if cacheable:
            entry = self._cache.get(query)
            if entry is not None and entry[0] == version:
                self._cache.move_to_end(query)
                self.cache_hits += 1
                return replace(
                    entry[1],
                    payload=_guard_payload(entry[1].payload),
                    cached=True,
                    elapsed_ms=(time.perf_counter() - start) * 1000.0,
                )
        result = self._dispatch(query)
        result.elapsed_ms = (time.perf_counter() - start) * 1000.0
        # Dispatch itself can move the KG version (linking may mint an
        # entity for an unknown mention); stamp and cache under the
        # post-dispatch version or the entry could never hit.
        version = self.nous.dynamic.version
        result.kg_version = version
        if cacheable:
            self.cache_misses += 1
            # Same container guard on the stored side: the caller of the
            # miss holds `result`, which must not alias the cache.
            stored = replace(result, payload=_guard_payload(result.payload))
            self._cache[query] = (version, stored)
            self._cache.move_to_end(query)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        return result

    def clear_cache(self) -> None:
        """Drop every cached result (stats are kept)."""
        self._cache.clear()

    @property
    def cache_len(self) -> int:
        return len(self._cache)

    def _dispatch(self, query: Query) -> QueryResult:
        if isinstance(query, TrendingQuery):
            return self._trending(query)
        if isinstance(query, EntityTrendQuery):
            return self._entity_trend(query)
        if isinstance(query, EntityQuery):
            return self._entity(query)
        if isinstance(query, ExplanatoryQuery):
            return self._paths(query, query.relationship, kind="explanatory")
        if isinstance(query, RelationshipQuery):
            return self._paths(query, query.relationship, kind="relationship")
        if isinstance(query, PatternQuery):
            return self._pattern(query)
        if isinstance(query, PageRankQuery):
            return self._pagerank(query)
        if isinstance(query, ComponentsQuery):
            return self._components(query)
        if isinstance(query, CentralityQuery):
            return self._centrality(query)
        raise QueryError(  # pragma: no cover - future query classes
            f"unsupported query type: {type(query).__name__}"
        )

    # ------------------------------------------------------------------
    def _trending(self, query: TrendingQuery) -> QueryResult:
        report = self.nous.trending()
        return QueryResult(
            query=query,
            kind="trending",
            payload=report,
            rendered=render_window_report(report),
            result_count=len(report.closed_frequent),
        )

    def _entity_trend(self, query: EntityTrendQuery) -> QueryResult:
        rows = self.nous.entity_trend(query.entity)
        return QueryResult(
            query=query,
            kind="entity-trend",
            payload=rows,
            rendered=render_trend_rows(query.entity, rows),
            result_count=len(rows),
        )

    def _entity(self, query: EntityQuery) -> QueryResult:
        summary = self.nous.entity_summary(query.entity)
        return QueryResult(
            query=query,
            kind="entity",
            payload=summary,
            rendered=summary.render(),
            result_count=len(summary.facts),
        )

    def _paths(self, query, relationship: Optional[str], kind: str) -> QueryResult:
        paths = self.nous.explain(
            query.source, query.target, relationship=relationship, k=3
        )
        relaxed = False
        if not paths and relationship is not None:
            # The predicate constraint is a preference, not a hard gate:
            # fall back to unconstrained explanation rather than nothing.
            paths = self.nous.explain(query.source, query.target, k=3)
            relaxed = True
        note = (
            f"(no path via '{relationship}'; showing unconstrained paths)"
            if relaxed and paths
            else None
        )
        return QueryResult(
            query=query,
            kind=kind,
            payload=paths,
            rendered=render_ranked_paths(paths, note=note),
            result_count=len(paths),
        )

    def _pagerank(self, query: PageRankQuery) -> QueryResult:
        ranks = pagerank(self.nous.kb.graph_view())
        payload = pagerank_payload(
            {str(v): score for v, score in ranks.items()}, top=query.top
        )
        return QueryResult(
            query=query,
            kind="pagerank",
            payload=payload,
            rendered=render_pagerank(payload),
            result_count=len(payload["ranks"]),
        )

    def _components(self, query: ComponentsQuery) -> QueryResult:
        labels = connected_components(self.nous.kb.graph_view())
        payload = components_payload(
            {str(v): str(label) for v, label in labels.items()}
        )
        return QueryResult(
            query=query,
            kind="components",
            payload=payload,
            rendered=render_components(payload),
            result_count=payload["num_components"],
        )

    def _centrality(self, query: CentralityQuery) -> QueryResult:
        if query.metric != "degree":
            raise QueryError(f"unsupported centrality metric {query.metric!r}")
        graph = self.nous.kb.graph_view()
        degrees = {str(v): float(graph.degree(v)) for v in graph.vertices()}
        payload = centrality_payload(degrees, metric=query.metric, top=query.top)
        return QueryResult(
            query=query,
            kind="centrality",
            payload=payload,
            rendered=render_centrality(payload),
            result_count=len(payload["ranks"]),
        )

    def _pattern(self, query: PatternQuery) -> QueryResult:
        pattern = parse_pattern(query.pattern_text)
        matcher = PatternMatcher(
            self.nous.kb.graph_view(), ontology=self.nous.kb.ontology
        )
        matches = matcher.match(pattern, limit=50)
        return QueryResult(
            query=query,
            kind="pattern",
            payload=matches,
            rendered=render_pattern_matches(matches),
            result_count=len(matches),
        )


# ---------------------------------------------------------------------------
# shared renderers
# ---------------------------------------------------------------------------
# The monolithic engine and the sharded scatter-gather router must render
# payloads identically — a cluster of one shard answering byte-for-byte
# like a single service is the base case the equivalence suite pins — so
# the plain-text rendering lives here, outside both.


def render_window_report(report: WindowReport) -> str:
    """Plain-text rendering of a trending report."""
    lines = [f"window edges: {report.window_edges}", "closed frequent patterns:"]
    for pattern, support in report.closed_frequent[:15]:
        lines.append(f"  support={support:3d}  {pattern.describe()}")
    if report.newly_frequent:
        lines.append("newly frequent:")
        for pattern in report.newly_frequent[:10]:
            lines.append(f"  + {pattern.describe()}")
    if report.newly_infrequent:
        lines.append("no longer frequent (with surviving sub-patterns):")
        for pattern, survivors in report.newly_infrequent[:10]:
            lines.append(f"  - {pattern.describe()}  -> {len(survivors)} survivors")
    return "\n".join(lines)


def render_trend_rows(entity: str, rows: Sequence[Tuple]) -> str:
    """Plain-text rendering of "what's new about X" rows."""
    if not rows:
        return f"nothing new about {entity} in the current window"
    lines = [f"recent facts about {entity}:"]
    for _ts, s, p, o, conf in rows:
        lines.append(f"  ({s}, {p}, {o})  conf={conf:.2f}")
    return "\n".join(lines)


def render_ranked_paths(
    paths: Sequence[RankedPath], note: Optional[str] = None
) -> str:
    """Plain-text rendering of coherence-ranked path answers."""
    if not paths:
        return "no connecting path found"
    lines = [
        f"{i + 1}. coherence={p.coherence:.3f}  {p.describe()}"
        for i, p in enumerate(paths)
    ]
    if note:
        lines.insert(0, note)
    return "\n".join(lines)


def render_pattern_matches(matches: Sequence[Dict[str, Any]]) -> str:
    """Plain-text rendering of pattern-match binding rows."""
    lines = [f"{len(matches)} match(es):"]
    for bindings in matches[:20]:
        rendered = ", ".join(f"?{k}={v}" for k, v in sorted(bindings.items()))
        lines.append(f"  {rendered}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# analytics payloads
# ---------------------------------------------------------------------------
# Both the monolith engine and the distributed compute coordinator build
# analytics answers from a plain ``entity -> value`` map; the payload
# builders canonicalise them (scores rounded so float summation order
# cannot leak into equality, deterministic ordering) so the two sides
# produce *equal* payloads over the same merged graph.

#: Rounding applied to analytics scores before they enter a payload;
#: 9 decimals is far above pagerank's 1e-6 convergence tolerance and far
#: below the ~1e-15 noise of summing shard contributions in a different
#: order than the monolith's edge loop.
ANALYTICS_SCORE_DECIMALS = 9


def pagerank_payload(
    ranks: Mapping[str, float], top: int = 10
) -> Dict[str, Any]:
    """Canonical pagerank payload: top-N ``[entity, score]`` rows."""
    rows = sorted(
        ((e, round(s, ANALYTICS_SCORE_DECIMALS)) for e, s in ranks.items()),
        key=lambda row: (-row[1], row[0]),
    )
    return {
        "ranks": [[e, s] for e, s in rows[: max(top, 0)]],
        "num_vertices": len(ranks),
    }


def components_payload(labels: Mapping[str, str]) -> Dict[str, Any]:
    """Canonical component census: member lists sorted inside, largest
    (then lexicographically first) component first."""
    groups: Dict[str, List[str]] = {}
    for vertex, label in labels.items():
        groups.setdefault(label, []).append(vertex)
    components = sorted(
        (sorted(members) for members in groups.values()),
        key=lambda members: (-len(members), members[0]),
    )
    return {"components": components, "num_components": len(components)}


def centrality_payload(
    scores: Mapping[str, float], metric: str = "degree", top: int = 10
) -> Dict[str, Any]:
    """Canonical centrality payload: top-N ``[entity, score]`` rows."""
    rows = sorted(
        ((e, round(s, ANALYTICS_SCORE_DECIMALS)) for e, s in scores.items()),
        key=lambda row: (-row[1], row[0]),
    )
    return {"metric": metric, "ranks": [[e, s] for e, s in rows[: max(top, 0)]]}


def render_pagerank(payload: Mapping[str, Any]) -> str:
    """Plain-text rendering of a pagerank ranking."""
    if not payload["ranks"]:
        return "graph is empty; no pagerank to compute"
    lines = [f"pagerank over {payload['num_vertices']} vertices:"]
    for i, (entity, score) in enumerate(payload["ranks"]):
        lines.append(f"{i + 1:3d}. {score:.6f}  {entity}")
    return "\n".join(lines)


def render_components(payload: Mapping[str, Any]) -> str:
    """Plain-text rendering of a component census."""
    components = payload["components"]
    if not components:
        return "graph is empty; no components"
    lines = [f"{payload['num_components']} connected component(s):"]
    for i, members in enumerate(components[:10]):
        preview = ", ".join(members[:6])
        more = f", ... (+{len(members) - 6})" if len(members) > 6 else ""
        lines.append(f"{i + 1:3d}. size={len(members):4d}  {preview}{more}")
    return "\n".join(lines)


def render_centrality(payload: Mapping[str, Any]) -> str:
    """Plain-text rendering of a centrality ranking."""
    if not payload["ranks"]:
        return "graph is empty; no centrality to compute"
    lines = [f"{payload['metric']} centrality:"]
    for i, (entity, score) in enumerate(payload["ranks"]):
        lines.append(f"{i + 1:3d}. {score:g}  {entity}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# scatter-gather merges
# ---------------------------------------------------------------------------
# Per-query-class result assembly for a sharded deployment: each shard
# answers over its own slice of the KG (curated base replicated, extracted
# facts partitioned) and the router combines the partial answers.  These
# are pure functions of the partial results so they can be property-tested
# without a cluster.  The merge semantics per class:
#
# - entity / entity-trend / pattern: union + dedupe (a fact/row either is
#   in the merged answer or is not; identical rows from several shards
#   collapse, confidence ties keep the highest-confidence copy);
# - relationship / explanatory: top-k re-rank — paths found by any shard,
#   deduplicated by node sequence, re-ranked by coherence;
# - trending: frequency and closedness are recomputed on the exact
#   union support table the distributed miner assembles (a pattern below
#   threshold on every shard can be frequent in the union);
# - statistics: summation, with the replicated curated base counted once.


def merge_entity_summaries(summaries: Sequence[EntitySummary]) -> EntitySummary:
    """Union + dedupe entity summaries from several shards.

    Facts are keyed by ``(subject, predicate, object, curated)``; the
    highest-confidence copy wins (shards that saw the fact extracted
    more recently re-score it).  The final ordering matches the
    monolith's: stable sort by ``(-confidence, predicate)``.
    """
    if not summaries:
        raise QueryError("cannot merge zero entity summaries")
    first = summaries[0]
    best: "OrderedDict[Tuple[str, str, str, bool], Tuple[str, str, str, float, bool]]"
    best = OrderedDict()
    dates: List[str] = []
    neighbors: Set[str] = set()
    description = ""
    entity_type = ""
    for summary in summaries:
        for fact in summary.facts:
            s, p, o, conf, curated = fact
            key = (s, p, o, curated)
            kept = best.get(key)
            if kept is None or conf > kept[3]:
                best[key] = fact
        dates.extend(summary.recent_dates)
        neighbors.update(summary.neighbors)
        if not description and summary.description:
            description = summary.description
        if entity_type in ("", "Thing") and summary.entity_type:
            entity_type = summary.entity_type
    facts = sorted(best.values(), key=lambda f: (-f[3], f[1]))
    return EntitySummary(
        entity=first.entity,
        entity_type=entity_type or "Thing",
        description=description,
        facts=facts,
        recent_dates=sorted(set(dates), reverse=True),
        neighbors=sorted(neighbors),
    )


def merge_ranked_paths(
    path_lists: Sequence[Sequence[RankedPath]], k: int = 3
) -> List[RankedPath]:
    """Top-k re-rank of per-shard path answers.

    Paths are deduplicated by node sequence (the best — lowest-
    divergence — copy wins; coherence may differ slightly where shards
    fitted topics over different minted-entity sets) and the survivors
    re-ranked by the search's own key: ascending ``(coherence,
    length)`` — coherence is a divergence, lower is better.  The sort
    is stable, so a single-shard cluster preserves its shard's ordering
    exactly.
    """
    # Identity is the full route — nodes AND edge labels/directions
    # (``describe()`` renders exactly that): distinct predicates over
    # the same node sequence are distinct answers, as in the monolith.
    seen: "OrderedDict[str, RankedPath]" = OrderedDict()
    for paths in path_lists:
        for path in paths:
            key = path.describe()
            kept = seen.get(key)
            if kept is None or path.coherence < kept.coherence:
                seen[key] = path
    ranked = sorted(seen.values(), key=lambda p: (p.coherence, p.length))
    return ranked[:k]


def merge_trend_rows(
    row_lists: Sequence[Sequence[Tuple]], limit: int = 20
) -> List[Tuple]:
    """Union + dedupe entity-trend rows, newest first."""
    merged: "OrderedDict[Tuple, Tuple]" = OrderedDict()
    for rows in row_lists:
        for row in rows:
            merged.setdefault(tuple(row), row)
    ordered = sorted(merged.values(), key=lambda r: -r[0])
    return ordered[:limit]


def merge_pattern_matches(
    match_lists: Sequence[Sequence[Dict[str, Any]]], limit: int = 50
) -> List[Dict[str, Any]]:
    """Union + dedupe pattern-match binding rows.

    Shard order is preserved (first occurrence wins), which keeps a
    single-shard cluster identical to its shard and makes multi-shard
    output deterministic given deterministic shards.
    """
    merged: "OrderedDict[Tuple[Tuple[str, str], ...], Dict[str, Any]]" = OrderedDict()
    for matches in match_lists:
        for bindings in matches:
            key = tuple(sorted((str(k), str(v)) for k, v in bindings.items()))
            merged.setdefault(key, bindings)
    return list(merged.values())[:limit]


def assemble_window_report(
    merged: Mapping[Pattern, int],
    min_support: int,
    previous_frequent: Set[Pattern],
    window_edges: int,
    timestamp: float,
) -> Tuple[WindowReport, Set[Pattern]]:
    """Build a trending report from an already-merged support table.

    Frequency and closedness are recomputed on the merged table;
    transition events (newly frequent / newly infrequent with surviving
    sub-patterns) are computed against ``previous_frequent``, the
    caller's own last-report state — shard miners' transition state is
    never consumed.

    Returns:
        ``(report, frequent_now)`` — callers store ``frequent_now`` as
        the next call's ``previous_frequent``.
    """
    from repro.mining.patterns import sub_patterns

    frequent_now = {p for p, s in merged.items() if s >= min_support}
    newly_frequent = sorted(
        frequent_now - previous_frequent, key=lambda p: p.edges
    )
    newly_infrequent: List[Tuple[Pattern, List[Pattern]]] = []
    for lost in sorted(previous_frequent - frequent_now, key=lambda p: p.edges):
        survivors = [sub for sub in sub_patterns(lost) if sub in frequent_now]
        newly_infrequent.append((lost, survivors))
    report = WindowReport(
        timestamp=timestamp,
        closed_frequent=closed_patterns(merged, min_support),
        newly_frequent=newly_frequent,
        newly_infrequent=newly_infrequent,
        window_edges=window_edges,
    )
    return report, frequent_now


def merge_statistics(
    shard_stats: Sequence[GraphStatistics],
    curated: GraphStatistics,
    top_central: int = 8,
) -> GraphStatistics:
    """Summation merge of per-shard quality statistics.

    Every shard's KB contains the replicated curated base plus its own
    extracted slice, so sums over shards count the curated part once per
    shard; subtracting ``curated`` (the statistics of the pristine
    reference KB) ``N - 1`` times restores single-counting.  Entity
    counts merge the same way — entities minted by several shards for
    the same mention are double-counted, a documented approximation.
    PageRank centralities cannot be summed; the merge keeps the maximum
    rank a shard assigned to each entity and re-ranks.
    """
    n = len(shard_stats)
    if n == 0:
        raise QueryError("cannot merge zero statistics payloads")

    def _over(value_of: Any) -> int:
        return sum(int(value_of(s)) for s in shard_stats) - (n - 1) * int(
            value_of(curated)
        )

    merged = GraphStatistics(
        num_entities=_over(lambda s: s.num_entities),
        num_facts=_over(lambda s: s.num_facts),
        curated_facts=curated.curated_facts,
        extracted_facts=sum(s.extracted_facts for s in shard_stats),
    )
    merged.confidence_histogram = [
        sum(s.confidence_histogram[i] for s in shard_stats)
        - (n - 1) * curated.confidence_histogram[i]
        for i in range(len(curated.confidence_histogram))
    ]
    for table in ("facts_per_source", "facts_per_predicate", "entities_per_type"):
        counts: Dict[str, int] = {}
        for stats in shard_stats:
            for key, count in getattr(stats, table).items():
                counts[key] = counts.get(key, 0) + count
        for key, count in getattr(curated, table).items():
            counts[key] = counts.get(key, 0) - (n - 1) * count
        setattr(merged, table, {k: c for k, c in counts.items() if c > 0})
    total_extracted = merged.extracted_facts
    if total_extracted:
        merged.mean_extracted_confidence = (
            sum(
                s.mean_extracted_confidence * s.extracted_facts
                for s in shard_stats
            )
            / total_extracted
        )
    central: Dict[str, float] = {}
    for stats in shard_stats:
        for entity, rank in stats.central_entities:
            central[entity] = max(central.get(entity, 0.0), rank)
    merged.central_entities = sorted(
        central.items(), key=lambda kv: (-kv[1], kv[0])
    )[:top_central]
    return merged
