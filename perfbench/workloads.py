"""The benchmark's workloads: inputs from a seed, one timed pass, exact checks.

A workload is set up once per seed, then runs whole passes over the same
inputs. A pass records one ``ItemRecord`` per item with its time and its
output, and a calibration tick runs before and after each item, outside
the item's time. The checks run afterwards, outside every timed region. Each
workload also plants one wrong answer into its own checker
(``negative_control``), so a failed-item count of 0 is not vacuous.

Only ``setup`` imports from the package: the runner re-imports it for
every set-up repeat, and the modules of the last import are the ones used.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import importlib
import io
import json
import random
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

PACKAGE_MODULES = (
    "cli", "corpus", "bounds", "certificates", "enumeration", "geometry", "gordan", "search",
)

#: Edge counts of the ``ensemble`` polygons: two each of n = 10..24, so the
#: slowest ten items are the large polygons and the tail is the next one.
ENSEMBLE_EDGES = tuple(n for n in range(10, 25) for _ in range(2))
#: Significant digits of the ``ensemble`` polygons' integer coordinates.
ENSEMBLE_DIGITS = 3
#: Confinement radius for ``ensemble`` and ``certify`` polygons; large
#: enough that the sampler almost never redraws, so set-up stays cheap.
WIDE_RADIUS = Fraction(3)
#: Odd edge counts of the ``certify`` find items.
CERTIFY_EDGES = tuple(range(11, 32, 2))
#: Directions drawn by the sampled lower-bound check.
CHECK_SAMPLES = 200
#: The two ``search`` runs of a pass: (label, n, target, samples, radius).
#: ``hunt`` has a target no sample reaches, so every sample is generated
#: and screened out; at radius 5/2 a quarter of its draws are rejected.
#: ``confirm`` targets the edge-count bound at the default radius, so every
#: sample goes through exact enumeration and the certificate search, and
#: its twelve samples are the slowest items of a pass.
SEARCH_RUNS = (
    ("hunt", 22, 3, 400, Fraction(5, 2)),
    ("confirm", 12, 6, 12, Fraction(3, 2)),
)


#: Wall time of one calibration tick at the reference speed. An item's time
#: is scaled by REFERENCE_TICK_S / (mean of the ticks just before and after
#: it): on a shared host the whole process runs up to twice as slowly for
#: minutes at a time, and the ticks slow down with it.
REFERENCE_TICK_S = 0.65e-3


def calibration_tick() -> float:
    """Wall time of a fixed exact-rational loop, with the collector paused.

    Pausing the collector keeps the program's heap from slowing the tick.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = Fraction(0)
        for i in range(1, 150):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


@dataclass
class ItemRecord:
    key: tuple
    seconds: float
    output: object = None
    error: str = ""
    scale: float = 1.0  # factor from wall time to reference-speed time


def bracket(records: list[ItemRecord], ticks: list[float]) -> None:
    """Set each record's scale from the ticks before and after it."""
    for rec, before, after in zip(records, ticks, ticks[1:]):
        rec.scale = 2 * REFERENCE_TICK_S / (before + after)


@dataclass
class PassRecord:
    items: list[ItemRecord]
    ticks: list[float]
    stats: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        """Wall time spent in the items, ticks and harness excluded."""
        return sum(rec.seconds for rec in self.items)

    @property
    def scaled_seconds(self) -> float:
        return sum(rec.seconds * rec.scale for rec in self.items)


def import_package() -> SimpleNamespace:
    """Fresh import of the package; returns its modules by short name."""
    for name in [m for m in sys.modules if m == "superbridge" or m.startswith("superbridge.")]:
        del sys.modules[name]
    # ``import superbridge.search`` yields the re-exported function of the
    # same name; import_module returns the submodule itself.
    return SimpleNamespace(**{m: importlib.import_module(f"superbridge.{m}") for m in PACKAGE_MODULES})


def timed(key: tuple, fn, *args) -> ItemRecord:
    t0 = perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # an unexpected exception is a failed item
        return ItemRecord(key, perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")
    return ItemRecord(key, perf_counter() - t0, out)


class Workload:
    name = ""

    def setup(self, mods: SimpleNamespace, seed: int, tiny: bool = False) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassRecord:
        """Time every item of ``self.items``, a list of (key, function, args)."""
        records, ticks = [], [calibration_tick()]
        for key, fn, args in self.items:
            records.append(timed(key, fn, *args))
            ticks.append(calibration_tick())
        bracket(records, ticks)
        return PassRecord(records, ticks)

    def check(self, key: tuple, output) -> str:
        """Empty string if the output is right, else the reason it is not."""
        raise NotImplementedError

    def negative_control(self, passes: list[PassRecord]) -> str:
        """Plant one wrong answer; return the checker's reason ("" = missed)."""
        raise NotImplementedError

    def failures(self, passes: list[PassRecord]) -> list[tuple[int, tuple, str]]:
        """(pass index, item key, reason) for every failed item."""
        memo: dict = {}
        out = []
        for p_i, p in enumerate(passes):
            for rec in p.items:
                reason = rec.error
                if not reason:
                    memo_key = (rec.key, rec.output)
                    if memo_key not in memo:
                        try:
                            memo[memo_key] = self.check(rec.key, rec.output)
                        except Exception as exc:  # malformed output
                            memo[memo_key] = f"check raised {type(exc).__name__}: {exc}"
                    reason = memo[memo_key]
                if reason:
                    out.append((p_i, rec.key, reason))
        return out

    def screened_out_ratio(self, passes: list[PassRecord]) -> float:
        return 0.0


class Corpus(Workload):
    name = "corpus"

    def setup(self, mods, seed, tiny=False):
        self.mods = mods
        root = Path(str(mods.corpus.data_root()))
        manifest = json.loads((root / "corpus.json").read_text(encoding="utf-8"))["entries"]
        entries = {e.knot.name: e for e in mods.corpus.corpus_entries()}
        if tiny:
            manifest = manifest[:2]
        self.claimed = {item["name"]: entries[item["name"]].claimed_sb for item in manifest}
        self.knots = {item["name"]: entries[item["name"]].knot for item in manifest}
        argvs = []
        for item in manifest:
            path = str(root / item["realization"])
            argvs.append((("exact", item["name"]), ["exact", path, "--json"]))
            argvs.append((("find", item["name"]), ["find", path, "--json"]))
        certs = [str(root / item["certificate"]) for item in manifest if item.get("certificate")]
        argvs.append((("verify", len(certs)), ["verify", *certs, "--json"]))
        meta = root / "metadata"
        argvs.append((("table", "rolfsen"), ["table", "--metadata", str(meta / "rolfsen.csv")]))
        argvs.append(
            (("table", "exact"), ["table", "--metadata", str(meta / "exact_values.csv"), "--exact-only"])
        )
        self.golden = {
            "rolfsen": (root / "golden" / "rolfsen_intervals.txt").read_text(encoding="utf-8"),
            "exact": (root / "golden" / "known_exact.txt").read_text(encoding="utf-8"),
        }
        random.Random(f"corpus:{seed}").shuffle(argvs)
        self.items = [(key, self._cli, (argv,)) for key, argv in argvs]

    def _cli(self, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = self.mods.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue()

    def check(self, key, output, claimed: dict | None = None):
        claimed = claimed or self.claimed
        code, text = output
        if code != 0:
            return f"exit code {code}"
        kind, name = key
        if kind == "table":
            return "" if text == self.golden[name] else "table differs from the golden file"
        doc = json.loads(text)
        if doc.get("schema") != 1:
            return "missing schema 1"
        g = self.mods.geometry
        if kind == "verify":
            results = doc["results"]
            if len(results) != name:
                return f"{len(results)} results for {name} certificates"
            for res in results:
                if not res["verified"] or res["claim"] != f"sb <= {claimed[res['knot']]}":
                    return f"{res['knot']}: {res.get('reason') or res['claim']}"
            return ""
        knot = self.knots[name]
        edges = g.edge_vectors(knot)
        if kind == "exact":
            if doc["value"] != claimed[name]:
                return f"value {doc['value']} != claimed {claimed[name]}"
            witness = g.Direction(tuple(Fraction(c) for c in doc["witness"]))
            if g.descent_count(edges, witness) != doc["value"]:
                return "witness does not attain the value"
            return ""
        jin = knot.n // 2
        if claimed[name] < jin:
            if "u" in doc:
                bundle = self.mods.certificates.CertificateBundle(vector=tuple(doc["u"]))
            elif "U" in doc:
                bundle = self.mods.certificates.CertificateBundle(matrix=tuple(map(tuple, doc["U"])))
            else:
                return "no certificate found below the edge-count bound"
            bound = self.mods.certificates.verify_bundle(knot, bundle).bound
            return "" if bound == claimed[name] else f"certified bound {bound} != claimed"
        if not doc.get("evidence"):
            return "no evidence that the edge-count bound is attained"
        for ev in doc["evidence"]:
            if g.descent_count(edges, g.Direction(tuple(map(Fraction, ev["direction"])))) != jin:
                return f"evidence direction of system {ev['system']} misses the bound"
        return ""

    def negative_control(self, passes):
        rec = next(r for r in passes[0].items if r.key[0] == "exact" and not r.error)
        name = rec.key[1]
        return self.check(rec.key, rec.output, {**self.claimed, name: self.claimed[name] + 1})


class Ensemble(Workload):
    name = "ensemble"

    def setup(self, mods, seed, tiny=False):
        self.mods = mods
        self.seed = seed
        edges = ENSEMBLE_EDGES[:1] if tiny else ENSEMBLE_EDGES
        self.polygons = {}
        for i, n in enumerate(edges):
            rng = random.Random(f"ensemble:{seed}:{i}")
            p = mods.search.random_equilateral_polygon(n, WIDE_RADIUS, rng, name=f"ensemble{n}-{i}")
            with warnings.catch_warnings():
                # Knot type does not matter here, only the superbridge number.
                warnings.simplefilter("ignore", mods.geometry.KnotTypePreservationWarning)
                self.polygons[(n, i)] = mods.geometry.quantize(p, digits=ENSEMBLE_DIGITS)
        self.items = [(key, self._exact, (p,)) for key, p in self.polygons.items()]

    def _exact(self, p):
        return self.mods.enumeration.superbridge_number(p)

    def check(self, key, output):
        p = self.polygons[key]
        g = self.mods.geometry
        if output.value > p.n // 2:
            return f"value {output.value} exceeds floor(n/2)"
        if g.descent_count(g.edge_vectors(p), output.witness_direction) != output.value:
            return "witness does not attain the value"
        lower = self.mods.enumeration.sampled_lower_bound(p, CHECK_SAMPLES, seed=self.seed)
        if lower > output.value:
            return f"sampled lower bound {lower} exceeds the value {output.value}"
        return ""

    def negative_control(self, passes):
        rec = next(r for r in passes[0].items if not r.error)
        return self.check(rec.key, dataclasses.replace(rec.output, value=rec.output.value + 1))


class Search(Workload):
    name = "search"

    def setup(self, mods, seed, tiny=False):
        self.mods = mods
        rng = random.Random(f"search:{seed}")
        self.configs = {}
        for label, n, target, samples, radius in SEARCH_RUNS:
            if tiny:
                n, target, samples = 10, (3 if label == "hunt" else 5), (3 if label == "hunt" else 1)
            self.configs[label] = mods.search.SearchConfig(
                n=n,
                target=target,
                samples=samples,
                seed=rng.randrange(1 << 31),
                confinement_radius=radius,
            )

    def _run(self, label: str, cfg, ticks: list[float]) -> tuple[list[ItemRecord], tuple]:
        """One SearchRun, timed per sample between calls of the sampler.

        A calibration tick runs at each call of the sampler, between the
        end of one sample and the start of the next, and after the run.
        """
        mod = self.mods.search
        starts: list[float] = []
        ends: list[float] = []
        found: dict[int, object] = {}
        sampler = mod.random_equilateral_polygon

        def probe(*args, **kwargs):
            ends.append(perf_counter())
            ticks.append(calibration_tick())
            starts.append(perf_counter())
            return sampler(*args, **kwargs)

        mod.random_equilateral_polygon = probe
        try:
            run = mod.search(cfg)
            for cand in run:
                found[len(starts) - 1] = cand
        except Exception as exc:  # the run failed; every sample counts as failed
            error = f"{type(exc).__name__}: {exc}"
            return [ItemRecord((label, i), 0.0, error=error) for i in range(cfg.samples)], ()
        finally:
            end = perf_counter()
            mod.random_equilateral_polygon = sampler
        run_ticks = ticks[len(ticks) - len(starts):] + [calibration_tick()]
        ticks.append(run_ticks[-1])
        ends = ends[1:] + [end]
        items = [
            ItemRecord((label, i), ends[i] - starts[i], found.get(i)) for i in range(len(starts))
        ]
        bracket(items, run_ticks)
        stats = (run.stats.generated, run.stats.screened_out, run.stats.confirmed)
        return items, stats

    def run_pass(self):
        items, ticks, stats = [], [], {}
        for label, cfg in self.configs.items():
            run_items, stats[label] = self._run(label, cfg, ticks)
            items += run_items
        return PassRecord(items, ticks, stats)

    def check(self, key, output):
        if output is None:
            return ""
        cfg = self.configs[key[0]]
        cand = output
        if cand.exact_sb > cfg.target:
            return f"candidate exact sb {cand.exact_sb} > target {cfg.target}"
        p = cand.knot
        lower = self.mods.enumeration.sampled_lower_bound(p, CHECK_SAMPLES, seed=cfg.seed)
        if lower > cand.exact_sb:
            return f"sampled lower bound {lower} exceeds exact sb {cand.exact_sb}"
        if (cand.certificate is None) != (cand.exact_sb == p.n // 2):
            return "certificate present iff exact sb is below floor(n/2) fails"
        if cand.certificate is not None:
            bound = self.mods.certificates.verify_bundle(p, cand.certificate).bound
            if bound < cand.exact_sb:
                return f"certified bound {bound} below exact sb {cand.exact_sb}"
        return ""

    def failures(self, passes):
        out = super().failures(passes)
        first = passes[0]
        for p_i, p in enumerate(passes):
            for label, cfg in self.configs.items():
                reason = self._run_reason(label, cfg, p, first)
                if reason:
                    out += [(p_i, rec.key, reason) for rec in p.items if rec.key[0] == label]
        return out

    def _run_reason(self, label, cfg, p, first) -> str:
        if not p.stats.get(label):
            return ""  # the run raised; its samples already carry the error
        generated, screened_out, confirmed = p.stats[label]
        stream = [rec.output for rec in p.items if rec.key[0] == label]
        if generated != cfg.samples or len(stream) != cfg.samples:
            return f"generated {generated} of {cfg.samples} samples"
        rejected = generated - screened_out - confirmed
        if confirmed != sum(out is not None for out in stream) or rejected < 0:
            return f"stats do not add up: {p.stats[label]}"
        if cfg.target == cfg.n // 2 and (screened_out or rejected):
            return "a sample was dropped although the target is the edge-count bound"
        if p is not first:
            if p.stats[label] != first.stats[label] or stream != [
                rec.output for rec in first.items if rec.key[0] == label
            ]:
                return "the stream differs from the first iteration"
        return ""

    def negative_control(self, passes):
        rec = next(r for r in passes[0].items if r.output is not None)
        cfg = self.configs[rec.key[0]]
        return self.check(rec.key, dataclasses.replace(rec.output, exact_sb=cfg.target + 1))

    def screened_out_ratio(self, passes):
        stats = [s for p in passes for s in p.stats.values() if s]
        generated = sum(s[0] for s in stats)
        return sum(s[1] for s in stats) / generated if generated else 0.0


class Certify(Workload):
    name = "certify"

    def setup(self, mods, seed, tiny=False):
        self.mods = mods
        certs = mods.certificates
        rng = random.Random(f"certify:{seed}")
        self.polygons = {}
        for n in CERTIFY_EDGES[:1] if tiny else CERTIFY_EDGES:
            self.polygons[("find", n)] = mods.search.random_equilateral_polygon(
                n, WIDE_RADIUS, rng, name=f"certify{n}"
            )
        entries = [e for e in mods.corpus.corpus_entries() if e.certificate is not None]
        if tiny:
            entries = entries[:1]
        self.entries = {e.knot.name: e for e in entries}
        self.expected = {}
        items = [(key, self._find, (p,)) for key, p in self.polygons.items()]
        for e in entries:
            name, knot, n = e.knot.name, e.knot, e.knot.n
            items.append((("accept", name), self._verify, (knot, e.certificate)))
            # One reject item per null vector: every single-entry +1 tamper of
            # it, each with the diagnostic acceptance criterion 3 expects.
            if e.certificate.vector is not None:
                tampers = []
                for i in range(n):
                    vector = list(e.certificate.vector)
                    vector[i] += 1
                    tampers.append(certs.CertificateBundle(vector=tuple(vector)))
                self.expected[("reject", name, 0)] = ("nonzero_residual", None)
                items.append((("reject", name, 0), self._reject_all, (knot, tuple(tampers))))
                continue
            system_of_column = {
                certs.published_column_for_system(n, j)[0]: j for j in range(1, n + 1)
            }
            for c in range(n):
                tampers = []
                for r in range(n):
                    matrix = [list(row) for row in e.certificate.matrix]
                    matrix[r][c] += 1
                    tampers.append(certs.CertificateBundle(matrix=tuple(map(tuple, matrix))))
                self.expected[("reject", name, c)] = ("uncovered_system", system_of_column[c])
                items.append((("reject", name, c), self._reject_all, (knot, tuple(tampers))))
        if tiny:
            items = items[:3]
        random.Random(f"certify-order:{seed}").shuffle(items)
        self.items = items

    def _find(self, p):
        return self.mods.certificates.find_certificate(p)

    def _verify(self, knot, bundle):
        certs = self.mods.certificates
        try:
            return certs.verify_bundle(knot, bundle)
        except certs.InvalidCertificate as exc:
            return ("rejected", exc.check, exc.systems)

    def _reject_all(self, knot, tampers):
        return tuple(self._verify(knot, bundle) for bundle in tampers)

    def check(self, key, output):
        certs = self.mods.certificates
        kind = key[0]
        if kind == "find":
            p = self.polygons[key]
            if output.found:
                bound = certs.verify_bundle(p, output.bundle).bound
                return "" if bound == p.n // 2 - 1 else f"found bundle certifies {bound}"
            if not output.evidence:
                return "neither a bundle nor evidence"
            systems = certs.build_odd_systems(self.mods.geometry.edge_vectors(p)).systems
            for ev in output.evidence:
                if not self.mods.gordan.verify_separating(systems[ev.system - 1], ev.direction):
                    return f"evidence for system {ev.system} does not separate"
            return ""
        if kind == "accept":
            if not isinstance(output, certs.VerifiedBound):
                return f"shipped certificate rejected: {output}"
            claimed = self.entries[key[1]].claimed_sb
            return "" if output.bound == claimed else f"bound {output.bound} != claimed {claimed}"
        check, system = self.expected[key]
        for row, outcome in enumerate(output):
            if not isinstance(outcome, tuple):
                return f"tamper of entry {row} accepted"
            if outcome[1] != check or (system is not None and system not in outcome[2]):
                return f"tamper of entry {row}: diagnostic {outcome[1:]}, expected {check} for system {system}"
        return ""

    def negative_control(self, passes):
        key = next(iter(self.expected))
        entry = self.entries[key[1]]
        return self.check(key, (self._verify(entry.knot, entry.certificate),))


WORKLOADS = {w.name: w for w in (Corpus, Ensemble, Search, Certify)}
