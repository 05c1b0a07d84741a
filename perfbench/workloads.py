"""The three workloads: ``fit``, ``sampling`` and ``cli``.

A workload makes its inputs from the seed, hands out rounds of operations
(every round has the same make-up; only the seeded parameters differ), runs
one operation at a time and checks its output.  An operation marked
``fault`` exercises a known fault of the program: it is expected to fail its
check in every run, and is counted as failed without making the run
incorrect.
"""

from __future__ import annotations

import os
import shutil
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

import checks
from references import Reference

#: Shape classes every workload visits: small integer, large integer (cdf
#: switches to scipy quad), fractional below 1 (cusp, mode-band rule) and
#: fractional above 1.  The last class, "about 12", is drawn per run.
M_CLASSES = (1.0, 2.0, 10.0, 40.0, 54.0, 0.025, 0.5, 2.5)


def m_about_12(seed: int) -> float:
    return round(11.5 + np.random.default_rng([seed, 12]).random(), 6)


@dataclass
class Op:
    kind: str
    m: float
    params: dict = field(default_factory=dict)
    fault: bool = False


def _random_cov(rng: np.random.Generator, n: int) -> np.ndarray:
    scale = rng.uniform(0.7, 1.4, n)
    b = rng.normal(0.0, 0.4, (n, n))
    corr = b @ b.T + np.eye(n)
    d = np.sqrt(np.diag(corr))
    return corr / np.outer(d, d) * np.outer(scale, scale)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

class Fit:
    """Likelihood sweep: build a distribution at a new point, score fixed data.

    Per round: for each of the nine M values two univariate points, one N=2
    and one N=3 point, then the three known-fault points M = 55, 56, 57
    (fixed inputs; their constant is off by up to 2.8e-2).
    """

    module = "multigauss"
    FAULT_M = (55.0, 56.0, 57.0)
    N_UNI = 2000
    N_MV = 1000

    def __init__(self, seed: int):
        from multigauss import MultiGauss, MvMultiGauss

        self._mg, self._mv = MultiGauss, MvMultiGauss
        self.seed = seed
        self.m_values = M_CLASSES + (m_about_12(seed),)
        rng = np.random.default_rng([seed, 1])
        # Student-t data: a few per cent of points lie in the far tail
        self.data = {1: np.clip(rng.standard_t(5, self.N_UNI), -12.0, 12.0)}
        for n in (2, 3):
            z = rng.standard_normal((self.N_MV, n))
            self.data[n] = z * np.sqrt(5.0 / rng.chisquare(5, (self.N_MV, 1))).clip(max=4.0)
        self.fault_data = np.clip(np.random.default_rng(0).standard_t(5, self.N_UNI), -12, 12)
        self.refs = {m: Reference(m) for m in self.m_values + self.FAULT_M}
        for m, ref in self.refs.items():  # fill every reference before timing starts
            for a in ((0.5,) if m in self.FAULT_M else (0.5, 1.0, 1.5)):
                ref.s(a)

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 2, r])
        ops = []
        for m in self.m_values:
            for _ in range(2):
                ops.append(Op("mg", m, {"mu": rng.uniform(-0.3, 0.3),
                                        "sigma": rng.uniform(0.7, 1.4)}))
            for n in (2, 3):
                ops.append(Op("mv", m, {"mean": rng.uniform(-0.3, 0.3, n),
                                        "cov": _random_cov(rng, n)}))
        ops += [Op("mg", m, {"mu": 0.0, "sigma": 1.0}, fault=True) for m in self.FAULT_M]
        return ops

    def run(self, op: Op):
        p = op.params
        if op.kind == "mg":
            data = self.fault_data if op.fault else self.data[1]
            return float(np.sum(self._mg(p["mu"], p["sigma"], op.m).logpdf(data)))
        mv = self._mv(p["mean"], p["cov"], op.m)
        return float(np.sum(np.log(mv.pdf(self.data[p["mean"].size]))))

    def check(self, op: Op, ll) -> str | None:
        p = op.params
        if op.kind == "mg":
            data = self.fault_data if op.fault else self.data[1]
            return checks.check_loglik_mg(ll, data, p["mu"], p["sigma"], self.refs[op.m])
        return checks.check_loglik_mv(ll, self.data[p["mean"].size], p["mean"], p["cov"],
                                      self.refs[op.m])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

class Sampling:
    """Monte Carlo draws, cold (fresh object) then warm (kept object).

    A slot is a family and an M value: ``mg`` and ``lmg`` draw 1e5 variates,
    ``mv2`` and ``mv3`` draw 5e4 points in N = 2 and 3.  Each round visits
    every slot with a cold operation followed by a warm one; the warm draw
    reuses the cold draw's generator seed, so it must return the very same
    values.
    """

    module = "multigauss"
    FAMILIES = ("mg", "lmg", "mv2", "mv3")
    N_UNI = 100_000
    N_MV = 50_000

    def __init__(self, seed: int):
        from multigauss import LogMultiGauss, MultiGauss, MvMultiGauss

        self._ctor = {"mg": MultiGauss, "lmg": LogMultiGauss, "mv2": MvMultiGauss,
                      "mv3": MvMultiGauss}
        self.seed = seed
        self.m_values = M_CLASSES + (m_about_12(seed),)
        self.refs = {m: Reference(m) for m in self.m_values}
        for ref in self.refs.values():  # fill every reference before timing starts
            for u in checks.DKW_POINTS:
                ref.cdf(u)
            for n in (2, 3):
                for q in checks.RADIAL_POINTS:
                    ref.radial_cdf(q, n)
        self._live = None
        self._cold_out = None

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 3, r])
        ops = []
        for fam in self.FAMILIES:
            for m in self.m_values:
                if fam in ("mg", "lmg"):
                    params = {"mu": rng.uniform(-1.0, 1.0), "sigma": rng.uniform(0.5, 2.0)}
                else:
                    n = int(fam[2])
                    params = {"mean": rng.uniform(-1.0, 1.0, n), "cov": _random_cov(rng, n)}
                params["seed"] = int(rng.integers(2**63))
                ops.append(Op(fam + ":cold", m, params))
                ops.append(Op(fam + ":warm", m, params))
        return ops

    def run(self, op: Op):
        fam, temp = op.kind.split(":")
        p = op.params
        if temp == "cold":
            self._live = None  # a constructor that raises leaves nothing to draw from
            if fam.startswith("mv"):
                self._live = self._ctor[fam](p["mean"], p["cov"], op.m)
            else:
                self._live = self._ctor[fam](p["mu"], p["sigma"], op.m)
        n = self.N_MV if fam.startswith("mv") else self.N_UNI
        return self._live.sample(n, np.random.Generator(np.random.PCG64(p["seed"])))

    def check(self, op: Op, out) -> str | None:
        fam, temp = op.kind.split(":")
        if temp == "warm":
            cold, self._cold_out = self._cold_out, None
            if cold is None or not np.array_equal(out, cold):
                return f"{op.kind} M={op.m:g}: same seed gave different output"
            return None
        self._cold_out = out
        p = op.params
        ref = self.refs[op.m]
        if fam.startswith("mv"):
            return checks.check_mv_sample(out, p["mean"], p["cov"], ref)
        if out.shape != (self.N_UNI,):
            return f"{op.kind}: shape {out.shape}"
        if fam == "lmg":
            if not np.all(out > 0.0):
                return "lmg sample: non-positive values"
            out = np.log(out)
        return checks.check_standardized_sample((out - p["mu"]) / p["sigma"], ref, what=fam)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

#: Files each figure preset writes, with rows per file.
FIGURE_FILES = {1: (8, 801), 2: (4, 801), 3: (8, 801), 4: (4, 801), 5: (4, 40401),
                6: (8, 801), 7: (4, 801), 8: (4, 40401)}
FIGURE_MU_SIGMA = {"mu=0 sigma=1": (0.0, 1.0), "mu=0 sigma=2": (0.0, 2.0),
                   "mu=3 sigma=1": (3.0, 1.0), "mu=0 sigma=0.5": (0.0, 0.5)}
#: Shapes at which MGF and CF keep their digits (they lose them at large integer M).
GENFN_M = (1.0, 2.0, 10.0, 0.025, 0.5, 2.5)
CURVE_POINTS = 101
QUANTILE_POINTS = 41
MV_POINTS = 41
SAMPLE_N = 5000


class Cli:
    """One operation is one ``multigauss.cli.main(argv)`` in a forked child.

    The parent has imported the CLI once (that import is `setup_s`); each
    child starts from that state, runs one command into its own directory
    and exits, so nothing carries over from one operation to the next.
    """

    module = "multigauss.cli"

    def __init__(self, seed: int, out_dir: str, tracer=None):
        import multigauss.cli as cli

        self._main = cli.main
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = tracer
        self.m_values = M_CLASSES + (m_about_12(seed),)
        self.refs = {m: Reference(m) for m in self.m_values + (0.25,)}
        self.peak_rss_kb = 0

    # -- the round ------------------------------------------------------------

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, 4, r])
        ops = []
        for fig in range(1, 9):
            for fmt in ("csv", "json"):
                ops.append(Op("figure", 0.0, {"id": fig, "format": fmt}))
        for suite in ("series", "univariate", "lmg", "mv"):
            ops.append(Op("verify", 0.0, {"suite": suite}))

        def loc():
            return {"mu": rng.uniform(-1.0, 1.0), "sigma": rng.uniform(0.5, 1.5)}

        for i, m in enumerate(self.m_values):
            fmt = ("csv", "json")[i % 2]
            for kind in ("pdf", "cdf"):
                for fam in ("mg", "lmg"):
                    ops.append(Op("eval", m, {"what": kind, "family": fam, "format": fmt,
                                              **loc()}))
            ops.append(Op("eval", m, {"what": "quantile", "family": "mg", "format": fmt,
                                      **loc()}))
            ops.append(Op("eval", m, {"what": "moments", "family": "mg", "format": fmt,
                                      **loc()}))
            ops.append(Op("eval", m, {"what": "pdf", "family": "mv", "format": fmt,
                                      "sigma1": rng.uniform(0.5, 1.5),
                                      "sigma2": rng.uniform(0.5, 1.5),
                                      "rho": rng.uniform(-0.8, 0.8)}))
        for m in GENFN_M:
            for kind in ("mgf", "cf"):
                ops.append(Op("eval", m, {"what": kind, "family": "mg", "format": "csv",
                                          **loc()}))
            ops.append(Op("eval", m, {"what": "moments", "family": "lmg", "format": "json",
                                      "mu": rng.uniform(-0.5, 0.5),
                                      "sigma": rng.uniform(0.3, 0.6)}))
        for fam, ms in (("mg", (1.0, 10.0, 40.0, 0.5, 2.5, self.m_values[-1])),
                        ("lmg", (2.0, 54.0, 0.025)), ("mv", (1.0, 10.0, 0.5))):
            for m in ms:
                if fam == "mv":
                    params = {"sigma1": rng.uniform(0.5, 1.5), "sigma2": rng.uniform(0.5, 1.5),
                              "rho": rng.uniform(-0.8, 0.8)}
                else:
                    params = loc()
                params.update(family=fam, seed=int(rng.integers(2**63)))
                ops.append(Op("sample", m, params))
        return ops

    def argv(self, op: Op, where: str) -> list[str]:
        p = op.params
        if op.kind == "figure":
            return ["figure", str(p["id"]), "--out-dir", where, "--format", p["format"]]
        if op.kind == "verify":
            return ["verify", "--suite", p["suite"], "--out", os.path.join(where, "out")]
        # "--key=value": after "--mu", argparse takes "-5e-05" for an option, not a value
        flags = [f"--m={op.m!r}"]
        for key in ("mu", "sigma", "sigma1", "sigma2", "rho"):
            if key in p:
                flags.append(f"--{key}={float(p[key])!r}")
        if op.kind == "sample":
            return (["sample", p["family"], *flags, "--n", str(SAMPLE_N), "--seed",
                     str(p["seed"]), "--out", os.path.join(where, "out")])
        points = {"quantile": QUANTILE_POINTS, "mgf": 41, "cf": 41}.get(p["what"], CURVE_POINTS)
        if p["family"] == "mv":
            points = MV_POINTS
        return ["eval", p["what"], p["family"], *flags, "--points", str(points),
                "--format", p["format"], "--out", os.path.join(where, "out")]

    # -- running one operation ---------------------------------------------------

    def run(self, op: Op):
        where = os.path.join(self.out_dir, "op")
        shutil.rmtree(where, ignore_errors=True)
        os.makedirs(where)
        argv = self.argv(op, where)
        read_fd = write_fd = None
        if self.tracer is not None:
            read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: one CLI invocation, then exit without cleanup handlers
            code = 70
            try:
                err = os.open(os.path.join(where, "stderr"), os.O_WRONLY | os.O_CREAT, 0o644)
                null = os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, 1)
                os.dup2(err, 2)
                if self.tracer is not None:
                    os.close(read_fd)
                    self.tracer.clear()  # the parent keeps the spans of earlier operations
                code = self._main(argv)
                if self.tracer is not None:
                    with os.fdopen(write_fd, "wb") as fh:
                        fh.write(self.tracer.take())
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 1
            except BaseException:  # reported through the exit code; the child must not return
                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(code)
        blob = b""
        if read_fd is not None:
            os.close(write_fd)
            with os.fdopen(read_fd, "rb") as fh:
                blob = fh.read()
        _, status, usage = os.wait4(pid, 0)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if blob:
            self.tracer.merge(blob)
        return os.waitstatus_to_exitcode(status), where

    # -- checking one operation ----------------------------------------------------

    def check(self, op: Op, result) -> str | None:
        code, where = result
        if code != 0:
            with open(os.path.join(where, "stderr"), encoding="utf-8", errors="replace") as fh:
                return f"{' '.join(self.argv(op, where))}: exit {code}: {fh.read()[-300:]}"
        try:
            if op.kind == "figure":
                return self._check_figure(op, where)
            if op.kind == "verify":
                return self._check_verify(where)
            if op.kind == "sample":
                return self._check_sample(op, os.path.join(where, "out"))
            return self._check_eval(op, os.path.join(where, "out"))
        except (OSError, ValueError, KeyError, IndexError) as exc:  # malformed output
            return f"{' '.join(self.argv(op, where))}: unreadable output: {exc}"

    def _check_figure(self, op: Op, where: str) -> str | None:
        fig, fmt = op.params["id"], op.params["format"]
        n_files, n_rows = FIGURE_FILES[fig]
        names = sorted(f for f in os.listdir(where) if f.startswith(f"fig{fig}_"))
        if len(names) != n_files:
            return f"figure {fig}: {len(names)} files, expected {n_files}"
        for name in names:
            columns, table = checks.read_table(os.path.join(where, name), fmt)
            panel = name.split("_")[1]
            if fig in (5, 8):
                err = checks.check_table(columns, table, ("x1", "x2", "value", "series"), n_rows)
                if err:
                    return f"{name}: {err}"
                label = table["series"][0]
                m, rho = (float(t.split("=")[1]) for t in label.split())
                x1, x2, v = (table[c] for c in ("x1", "x2", "value"))
                idx = np.array([0, 8040, 20200, 20301, 33333, 40400])
                err = checks.check_close(v[idx], checks.biv_pdf(x1[idx], x2[idx], 1.0, 1.0, rho,
                                                                self._ref(m)), 1e-10,
                                         what=f"{name} pdf")
            else:
                err = checks.check_table(columns, table, ("x", "value", "series"), n_rows)
                if err:
                    return f"{name}: {err}"
                label = table["series"][0]
                if label in FIGURE_MU_SIGMA:
                    (mu, sigma), m = FIGURE_MU_SIGMA[label], 10.0
                else:
                    (mu, sigma), m = (0.0, 1.0), float(label.split("=")[1])
                kind = "cdf" if panel == "b" else "pdf"
                family = "lmg" if fig in (3, 4, 7) else "mg"
                x, v = table["x"], table["value"]
                err = self._check_curve(kind, family, m, mu, sigma, x, v, symmetric=True)
            if err:
                return f"{name}: {err}"
        return None

    def _check_verify(self, where: str) -> str | None:
        columns, table = checks.read_table(os.path.join(where, "out"), "csv")
        if "passed" not in columns or not len(table["passed"]):
            return "verify: empty report"
        failed = table["target_name"][table["passed"] != "True"]
        return f"verify: failed checks {list(failed)}" if len(failed) else None

    def _check_sample(self, op: Op, path: str) -> str | None:
        p = op.params
        columns, table = checks.read_table(path, "csv")
        if p["family"] == "mv":
            err = checks.check_table(columns, table, ("x", "x1", "x2", "series"), SAMPLE_N)
            if err:
                return f"sample mv: {err}"
            pts = np.column_stack([table[c] for c in ("x1", "x2")])
            s = np.array([p["sigma1"], p["sigma2"]])
            cov = np.array([[1.0, p["rho"]], [p["rho"], 1.0]]) * np.outer(s, s)
            return checks.check_mv_sample(pts, np.zeros(2), cov, self._ref(op.m))
        err = checks.check_table(columns, table, ("x", "value", "series"), SAMPLE_N)
        if err:
            return f"sample {p['family']}: {err}"
        v = table["value"]
        if p["family"] == "lmg":
            if not np.all(v > 0.0):
                return "sample lmg: non-positive values"
            v = np.log(v)
        return checks.check_standardized_sample((v - p["mu"]) / p["sigma"], self._ref(op.m),
                                                what=f"sample {p['family']}")

    def _check_eval(self, op: Op, path: str) -> str | None:
        p = op.params
        what, family, m = p["what"], p["family"], op.m
        columns, table = checks.read_table(path, p["format"])
        ref = self._ref(m)
        if family == "mv":
            n = MV_POINTS * MV_POINTS
            err = checks.check_table(columns, table, ("x1", "x2", "value", "series"), n)
            if err:
                return f"eval pdf mv: {err}"
            x1, x2, v = (table[c] for c in ("x1", "x2", "value"))
            idx = np.array([0, 400, 840, 841, 1200, n - 1])
            return checks.check_close(v[idx], checks.biv_pdf(x1[idx], x2[idx], p["sigma1"],
                                                             p["sigma2"], p["rho"], ref),
                                      1e-10, what="eval pdf mv")
        mu, sigma = p["mu"], p["sigma"]
        if what == "moments":
            err = checks.check_table(columns, table, ("x", "value", "series"), 4)
            if err:
                return f"eval {what}: {err}"
            want = self._moments(family, mu, sigma, ref)
            return checks.check_close(table["value"][: want.size], want, 1e-9,
                                      1e-12, what=f"eval {what} {family} M={m:g}")
        n_rows = {"quantile": QUANTILE_POINTS, "mgf": 41, "cf": 82}.get(what, CURVE_POINTS)
        err = checks.check_table(columns, table, ("x", "value", "series"), n_rows)
        if err:
            return f"eval {what} {family}: {err}"
        x, v = table["x"], table["value"]
        if what == "quantile":
            if np.any(np.diff(v) <= 0.0):
                return "quantile is not increasing"
            idx = [0, QUANTILE_POINTS // 4, (3 * QUANTILE_POINTS) // 4, QUANTILE_POINTS - 1]
            got = [ref.cdf((v[i] - mu) / sigma) for i in idx]
            return checks.check_close(got, x[idx], 0.0, 1e-9, what=f"cdf(quantile) M={m:g}")
        if what == "mgf":
            idx = [0, 30]
            want = [np.exp(mu * x[i]) * ref.mgf(sigma * x[i]) for i in idx]
            return checks.check_close(v[idx], want, 1e-9, what=f"mgf M={m:g}")
        if what == "cf":
            re, im, w = v[:41], v[41:], x[:41]
            if np.max(np.hypot(re, im)) > 1.0 + 1e-12 or abs(re[20] - 1.0) > 1e-12:
                return "cf: |cf| > 1 or cf(0) != 1"
            phase_err = np.abs(re * np.sin(mu * w) - im * np.cos(mu * w))
            return "cf: phase is not mu*omega" if np.max(phase_err) > 1e-12 else None
        return self._check_curve(what, family, m, mu, sigma, x, v, symmetric=family == "mg")

    # -- helpers -----------------------------------------------------------------

    def _ref(self, m: float) -> Reference:
        if m not in self.refs:
            self.refs[m] = Reference(m)
        return self.refs[m]

    def _check_curve(self, kind, family, m, mu, sigma, x, v, symmetric) -> str | None:
        ref = self._ref(m)
        n = x.size
        idx = np.array([n // 8, n // 2 - 7, n // 2 + 3, n - 5])
        xs = np.log(x[idx]) if family == "lmg" else x[idx]
        if kind == "pdf":
            want = checks.mg_pdf(xs, mu, sigma, ref)
            if family == "lmg":
                want = want / x[idx]
            return checks.check_close(v[idx], want, 1e-10, what=f"{family} pdf M={m:g}")
        err = checks.check_cdf_shape(v, symmetric)
        if err:
            return f"{family} {err}"
        want = [ref.cdf((xv - mu) / sigma) for xv in xs]
        return checks.check_close(v[idx], want, 0.0, 1e-10, what=f"{family} cdf M={m:g}")

    def _moments(self, family, mu, sigma, ref) -> np.ndarray:
        if family == "lmg":  # E[Y^k] = e^(k mu) E[e^(k sigma U)], checked for k = 1, 2
            return np.array([np.exp(k * mu) * ref.mgf(k * sigma) for k in range(1, 3)])
        x1 = ref.s(1.5) / ref.c0
        x2 = ref.s(2.5) / ref.c0
        s2 = sigma * sigma
        return np.array([mu, mu * mu + s2 * x1, mu ** 3 + 3 * mu * s2 * x1,
                         mu ** 4 + 6 * mu * mu * s2 * x1 + 3 * s2 * s2 * x2])
