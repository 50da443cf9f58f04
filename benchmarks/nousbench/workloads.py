"""Seeded input generators for the four nousbench workloads.

Everything the program under test receives is generated here from the
``--seed`` argument: which pool articles are bulk-ingested, which are
held out as write documents, the query population, its Zipf rank order,
every client's read script and the per-cycle query texts.

The *world* (curated KB + the 4 000-article pool the corpus is sampled
from) is pinned to ``WORLD_SEED``: on this tree a fresh world per seed
moves bulk-ingest throughput by ~20 % between seeds, which would drown
the system's own changes in corpus-generator variance.  Sampling from
one pool keeps the cross-seed spread near the sandbox's own noise
floor while still giving every seed different documents and queries.

The benchmark driver wants every run to print every end-to-end metric,
so every workload walks the same service lifecycle — bulk ingest, write
cycles beside a live subscriber, a closed-loop read replay, close and
cold restart.  A workload spends its time on the phases ISSUE 11 marks
it for; the others run at the smallest size that still yields a sample
(see ``SPECS``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from repro import CorpusConfig, generate_corpus
from repro.api.cluster.process import resolve_kb_spec
from repro.api.envelopes import IngestRequest
from repro.data.articles import Article
from repro.kb.drone_kb import build_drone_kb
from repro.kb.knowledge_base import KnowledgeBase

WORLD_SEED = 7
POOL_ARTICLES = 4000
#: The curated KB, by the spec string process-shard workers rebuild it from.
KB_SPEC = f"world:{POOL_ARTICLES}:{WORLD_SEED}"

#: The entity the standing query follows; every write document carries
#: one sentence about it, so every write is guaranteed to change the
#: subscription's rows.
SUBSCRIBED_ENTITY = "DJI"
SUBSCRIPTION_QUERY = f"what's new about {SUBSCRIBED_ENTITY}"

POPULATION_SIZE = 1024  # 4x the engine's 256-entry result cache
ZIPF_EXPONENT = 1.1
STATS_SHARE = 0.05  # of read-replay ops
WARMUP_SHARE = 0.05  # leading ops of each read script, untimed
STATS_OP = "/v1/stats"

#: Share of the query population per class.  Ranks are dealt to classes
#: by weighted round-robin, so the class sitting at each Zipf rank is
#: the same for every seed and only its *member* (entity, pair,
#: pattern) is seed-drawn: the hot set's cost profile does not depend
#: on the seed.
CLASS_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("entity", 0.28),
    ("entity-trend", 0.16),
    ("relationship", 0.18),
    ("explanatory", 0.06),
    ("pattern", 0.14),
    ("analytics", 0.15),
    ("trending", 0.03),
)

#: The post-write misses of one write cycle, in order (asked twice
#: over, with other members).  Seven of the nine are single-lookup
#: classes of like cost, so the median miss sits inside that group and
#: not in the gap between it and the heavy classes (distributed mining,
#: pagerank); the cluster runs its miner and its coordinator every cycle.
_CYCLE_MISSES: Tuple[str, ...] = (
    "entity",
    "entity-trend",
    "pattern",
    "trending",
    "entity",
    "entity-trend",
    "analytics",
    "entity",
    "pattern",
)
#: Query classes of one write cycle.  The relationship query comes
#: first: it is the first path search after the stamp moved, so it pays
#: the topic-model refit (`query_fresh_path_p50_ms`).
CYCLE_CLASSES: Tuple[str, ...] = ("relationship",) + 2 * _CYCLE_MISSES
_CYCLE_ANALYTICS = ("show pagerank", "show pagerank top 10")

PATH_CLASSES = ("relationship", "explanatory")


@dataclass(frozen=True)
class WorkloadSpec:
    """Frozen sizes of one workload at ``--seconds 20`` (why each
    workload exists is recorded in ``BENCHMARK.json``).

    Attributes:
        deployment: ``monolith`` (in-process ``NousService``),
            ``gateway`` (``NousGateway`` + ``ClientSession`` over a
            monolith) or ``cluster`` (gateway over a 2-shard
            ``ShardedNousService(shard_mode="process")``).
        bulk_docs: Articles bulk-ingested via ``submit_many`` + ``flush``.
        snapshot_at: Documents ingested before the manual ``snapshot()``
            (0: none — recovery replays the WAL alone).
        write_probes: Synchronous single-document ingests with no
            queries after them (a 70 ms ack / subscription-delta sample
            each; a cycle costs one topic-model fit, 5-12 s).
        cycles: Write cycles: one synchronous ingest, then the 19
            ``CYCLE_CLASSES`` queries.
        clients: Closed-loop client threads in the read replay.
        read_ops: Ops per client in the read replay (0: none — the
            query metrics come from the cycles' post-write misses).
        verify_paths: Compare path-class answers with the oracle's (one
            more topic-model fit, ~5 s, paid by one workload only);
            elsewhere they are checked for shape and stamp.
        reference: Verify against an independent in-process monolith
            that replays the run's history, so every cycle's state is
            checked (costs a second bulk ingest).  Elsewhere the
            cold-restarted service is the oracle, for the final state.
    """

    name: str
    deployment: str
    bulk_docs: int
    snapshot_at: int
    write_probes: int
    cycles: int
    clients: int
    read_ops: int
    verify_paths: bool = False
    reference: bool = False


SPECS: Dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        # Marked for: ingest_docs_per_s, recover_s.  One cycle and a
        # short in-process replay supply the other metrics' samples.
        WorkloadSpec(
            name="build-bulk",
            deployment="monolith",
            bulk_docs=800,
            snapshot_at=480,
            write_probes=8,
            cycles=1,
            # One in-process caller: two threads on the monolith's single
            # engine lock convoy behind each other's misses, and the
            # median op flips between "hit" and "hit that waited".
            clients=1,
            read_ops=1200,
        ),
        # Marked for: query_p50_ms, query_p99_ms, query_per_s.
        WorkloadSpec(
            name="serve-read",
            deployment="gateway",
            bulk_docs=400,
            snapshot_at=0,
            write_probes=8,
            cycles=1,
            clients=2,
            read_ops=1250,
            verify_paths=True,
        ),
        # Marked for: ingest_ack_p50_ms, sub_delta_p50_ms,
        # query_fresh_path_p50_ms, query_p50_ms (post-write misses).
        WorkloadSpec(
            name="serve-mixed",
            deployment="gateway",
            bulk_docs=400,
            snapshot_at=0,
            write_probes=8,
            cycles=3,
            clients=2,
            read_ops=0,
            reference=True,
        ),
        # Marked for: ingest_docs_per_s, ingest_ack_p50_ms, query_p50_ms,
        # query_fresh_path_p50_ms.  One cycle: its fresh path answer is
        # three fits in a row, ~12 s — a third of the run, and as long
        # as serve-mixed's three samples together.
        WorkloadSpec(
            name="cluster-mixed",
            deployment="cluster",
            bulk_docs=400,
            snapshot_at=0,
            write_probes=8,
            cycles=1,
            clients=2,
            read_ops=0,
        ),
    )
}


def scaled(spec: WorkloadSpec, scale: float) -> WorkloadSpec:
    """The spec with every count multiplied by ``scale`` (floors keep a
    scaled-down run structurally complete: at least one cycle, one
    write probe and, where there is a replay, a handful of reads)."""
    if scale == 1.0:
        return spec
    bulk = max(40, round(spec.bulk_docs * scale))
    return replace(
        spec,
        bulk_docs=bulk,
        snapshot_at=min(bulk, round(spec.snapshot_at * scale)),
        write_probes=max(1, round(spec.write_probes * scale)),
        cycles=max(1, round(spec.cycles * scale)),
        read_ops=max(40, round(spec.read_ops * scale)) if spec.read_ops else 0,
    )


@dataclass(frozen=True)
class QueryOp:
    """One read op: a query text (or ``STATS_OP``) and its class."""

    text: str
    klass: str


@dataclass
class Script:
    """Everything one run feeds the system, in order."""

    bulk: List[Article]
    writes: List[IngestRequest]  # write_probes first, then one per cycle
    cycle_queries: List[List[QueryOp]]
    read_scripts: List[List[QueryOp]]  # one per client
    population: List[QueryOp]

    @property
    def warmup_ops(self) -> int:
        """Leading ops of each read script that are not timed."""
        return int(len(self.read_scripts[0]) * WARMUP_SHARE)


def build_kb() -> KnowledgeBase:
    """A fresh copy of the pinned curated KB, built the way shard
    workers build theirs."""
    return resolve_kb_spec(KB_SPEC)


def build_pool() -> List[Article]:
    """The articles the world's generator wrote about ``KB_SPEC``."""
    return generate_corpus(
        build_drone_kb(), CorpusConfig(n_articles=POOL_ARTICLES, seed=WORLD_SEED)
    )


# ---------------------------------------------------------------------------
# query population
# ---------------------------------------------------------------------------

_ENTITY_TEMPLATES = (
    "tell me about {e}",
    "who is {e}",
    "what is {e}",
    "summarize {e}",
)
_TREND_TEMPLATES = ("what's new about {e}", "recent news about {e}")
_RELATED_TEMPLATES = (
    "how is {s} related to {t}",
    "find paths from {s} to {t}",
    "connect {s} and {t}",
)
#: The parser's "why does S <verb> T" template splits a multi-word S at
#: its first space (and the linker then *mints* the fragments), so only
#: the "related/connected/linked to" phrasings are safe for any mention.
_WHY_TEMPLATES = (
    "why is {s} related to {t}",
    "why is {s} connected to {t}",
    "why was {s} linked to {t}",
)


def _mentions(kb: KnowledgeBase) -> Dict[str, str]:
    """entity id -> one surface form that links back to it (an unknown
    mention would make the linker *mint* an entity and move the stamp)."""
    chosen: Dict[str, str] = {}
    for alias, entity in sorted(kb.kb_alias_index().items()):
        if entity not in chosen or len(alias) > len(chosen[entity]):
            chosen[entity] = alias
    return chosen


def _connected_pairs(kb: KnowledgeBase, mentions: Dict[str, str]) -> List[Tuple[str, str]]:
    """Ordered entity pairs joined by a curated path of <= 2 hops, so a
    path query over them finds an answer (workloads carry no op that
    fails)."""
    neighbours = {
        entity: set(kb.store.neighbors(entity)) & set(mentions)
        for entity in mentions
    }
    pairs = set()
    for a in mentions:
        for b in neighbours[a]:
            if a != b:
                pairs.add((a, b))
            for c in neighbours.get(b, ()):
                if c != a:
                    pairs.add((a, c))
    return sorted(pairs)


def _pattern_texts(kb: KnowledgeBase) -> List[str]:
    ontology = kb.ontology
    texts = []
    for name in sorted(ontology.predicates()):
        sig = ontology.predicate(name)
        if sig.range_ == "Literal":
            continue
        for a, b in (("a", "b"), ("x", "y"), ("s", "o")):
            texts.append(f"match (?{a}:{sig.domain})-[{name}]->(?{b}:{sig.range_})")
            texts.append(f"match (?{a})-[{name}]->(?{b}:{sig.range_})")
            texts.append(f"match (?{a}:{sig.domain})-[{name}]->(?{b})")
    return texts


def _class_members(kb: KnowledgeBase) -> Dict[str, List[str]]:
    """Every candidate text per class, in a deterministic order."""
    mentions = _mentions(kb)
    names = [mentions[e] for e in sorted(mentions)]
    pairs = [(mentions[a], mentions[b]) for a, b in _connected_pairs(kb, mentions)]
    return {
        "entity": [t.format(e=e) for e in names for t in _ENTITY_TEMPLATES],
        "entity-trend": [t.format(e=e) for e in names for t in _TREND_TEMPLATES],
        "relationship": [
            t.format(s=s, t=o) for s, o in pairs for t in _RELATED_TEMPLATES
        ],
        "explanatory": [t.format(s=s, t=o) for s, o in pairs for t in _WHY_TEMPLATES],
        "pattern": _pattern_texts(kb),
        "analytics": (
            [f"show pagerank top {n}" for n in range(1, 61)]
            + [f"degree centrality top {n}" for n in range(1, 61)]
            + [f"most connected entities top {n}" for n in range(1, 41)]
            + [
                "connected components",
                "show connected components",
                "find connected components",
                "list connected components",
            ]
        ),
        # Trending is never cached, so its texts only need to be distinct.
        "trending": [f"show trending patterns in window {n}" for n in range(64)],
    }


def _class_sequence(size: int) -> List[str]:
    """Deal ``size`` ranks to classes by weighted round-robin (largest
    accumulated deficit first)."""
    credit = {name: 0.0 for name, _ in CLASS_WEIGHTS}
    sequence = []
    for _ in range(size):
        for name, weight in CLASS_WEIGHTS:
            credit[name] += weight
        pick = max(CLASS_WEIGHTS, key=lambda item: credit[item[0]])[0]
        credit[pick] -= 1.0
        sequence.append(pick)
    return sequence


def build_population(kb: KnowledgeBase, rng: random.Random) -> List[QueryOp]:
    """``POPULATION_SIZE`` distinct query ops in Zipf rank order."""
    members = _class_members(kb)
    sequence = _class_sequence(POPULATION_SIZE)
    drawn = {}
    for klass, candidates in members.items():
        need = sequence.count(klass)
        if len(candidates) < need:
            raise ValueError(
                f"world offers {len(candidates)} {klass} texts, need {need}"
            )
        drawn[klass] = iter(rng.sample(candidates, need))
    return [QueryOp(next(drawn[klass]), klass) for klass in sequence]


def _zipf_script(
    population: Sequence[QueryOp], ops: int, client: int
) -> List[QueryOp]:
    """One client's read script: Zipf-drawn ranks plus the stats ops.

    The *rank sequence* is drawn from a generator pinned per client, not
    from the run's seed: every seed replays the same hit/miss pattern
    and class mix (the population deals a fixed class to each rank) and
    differs only in which member the seed seated at each rank.  Drawing
    the ranks per seed moved the share of never-cached trending ops, and
    with it `query_per_s` and `query_p99_ms`, by 30 % between seeds.
    """
    rng = random.Random(f"nousbench:ranks:{client}")
    weights = [1.0 / (rank**ZIPF_EXPONENT) for rank in range(1, len(population) + 1)]
    script = rng.choices(population, weights=weights, k=ops)
    stats = QueryOp(STATS_OP, "stats")
    for index in rng.sample(range(ops), int(ops * STATS_SHARE)):
        script[index] = stats
    return script


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

_MONTHS = (
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
)


def _write_requests(
    kb: KnowledgeBase, held_out: Sequence[Article], rng: random.Random
) -> List[IngestRequest]:
    """One synchronous-ingest document per write: a held-out pool
    article plus one seeded sentence about the subscribed entity, dated
    after every bulk article so stream time stays monotone."""
    # Named by id in its own casing: the extractor types a lower-cased
    # alias ("boeing") less reliably, and a rejected sentence would
    # leave the subscription without its delta.
    companies = sorted(
        entity.replace("_", " ")
        for entity in kb.entities_of_type("Company")
        if entity != SUBSCRIBED_ENTITY
    )
    requests = []
    for index, article in enumerate(held_out):
        month = index % 12
        company = rng.choice(companies)
        sentence = (
            f"{SUBSCRIBED_ENTITY} acquired {company} in "
            f"{_MONTHS[month]} {2016 + index // 12}."
        )
        requests.append(
            IngestRequest(
                text=f"{article.text} {sentence}",
                doc_id=f"write-{index:03d}-{article.doc_id}",
                date=f"{2016 + index // 12}-{month + 1:02d}-15",
                source=article.source,
            )
        )
    return requests


def generate(
    spec: WorkloadSpec, seed: int, kb: KnowledgeBase, pool: Sequence[Article]
) -> Script:
    """The full op script of one run (same seed, same script)."""
    rng = random.Random(f"nousbench:{spec.name}:{seed}")
    n_writes = spec.write_probes + spec.cycles
    sample = rng.sample(list(pool), spec.bulk_docs + n_writes)
    bulk = sorted(sample[: spec.bulk_docs], key=lambda a: (a.date.ordinal(), a.doc_id))
    writes = _write_requests(kb, sample[spec.bulk_docs:], rng)

    population = build_population(kb, rng)
    by_class: Dict[str, List[QueryOp]] = {}
    for op in population:
        by_class.setdefault(op.klass, []).append(op)
    by_class["analytics"] = [QueryOp(text, "analytics") for text in _CYCLE_ANALYTICS]
    cycle_queries = []
    for _ in range(spec.cycles):
        # Distinct texts within a cycle: a repeat would be a cache hit.
        draws = {
            klass: iter(rng.sample(by_class[klass], CYCLE_CLASSES.count(klass)))
            for klass in sorted(set(CYCLE_CLASSES))
        }
        cycle_queries.append([next(draws[klass]) for klass in CYCLE_CLASSES])
    read_scripts = [
        _zipf_script(population, spec.read_ops, client)
        for client in range(spec.clients)
    ]
    return Script(
        bulk=bulk,
        writes=writes,
        cycle_queries=cycle_queries,
        read_scripts=read_scripts,
        population=population,
    )
