"""Bits sweep: sha256 digests over the package's numbers, refusals and CLI bytes.

Run it against the source tree to check, from the root of that tree:

    PYTHONPATH=src python tools/bits.py

It prints one sha256 per section of records (composites, verify_composite,
baselines, fits, ingest, cli), then one over all the records in order.  Two
trees that print the same digest on one machine give the same bits on every
record below, so a refactor that claims "same bits" runs this sweep on the
parent and on the change, and a change that moves some bits shows in which
sections.  Each record is a label and its value: a float by float.hex, an
array by its bytes, and a refusal by its exception type and message.  The
records cover

- every method of the four composite models over fixed (theta, eta) and
  points including 0, -1, NaN, inf and 5e-324, and the two baselines;
- fit and fit_batch of all six models at n = 50, 200, 9 000 (past one
  8 192-cell scan block) and 20 000, on the data, its scale by 1e150 and
  1e-150 and its square root, with every refusal message;
- ingest_csv on good and bad files;
- the CLI's exit codes, stdout, stderr and written files for the commands
  whose outputs the tests pin.

The sweep is a tool, not a check against a stored digest: numpy's SIMD
kernels may round differently on another CPU.  It uses only names that
have long been public or module-level in the package, so it runs on older
trees too.  It takes a few seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import tempfile

import numpy as np

from expcomposite.cli import ingest_csv, main
from expcomposite.composite import verify_composite
from expcomposite.estimation import fit, fit_batch
from expcomposite.models import InverseGammaDensity, ModelId, WeibullDensity, build

COMPOSITES = [m for m in ModelId if m.is_composite]
POINTS = np.array([
    0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 1e-300, 1e-8, 0.3, 1.0, 2.0,
    50.0, 1e10, 1e300,
])
PROBABILITIES = np.array([1e-12, 0.1, 0.5, 0.9, 1.0 - 1e-12])
SIZES = (50, 200, 9000, 20000)


def spell(value) -> str:
    """A canonical text of value that tells floats apart to the bit, -0.0 from 0.0."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}:{value.tobytes().hex()}"
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(spell, value)) + "]"
    if isinstance(value, BaseException):
        return f"raise {type(value).__name__}: {value}"
    return repr(value)


class Sweep:
    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.sections = {}  # section name -> its sha256, in the order first used
        self.section = ""

    def add(self, label: str, f, *args, section: str | None = None) -> None:
        """Record f(*args), or the exception it raises, in the overall digest
        and in its section's, the current one unless named."""
        try:
            value = f(*args)
        except Exception as exc:  # a refusal is a record too
            value = exc
        record = f"{label}\t{spell(value)}\n".encode()
        self.sha.update(record)
        self.sections.setdefault(section or self.section, hashlib.sha256()).update(record)


def _composite_cases():
    for model in COMPOSITES:
        etas = (1.0,) if model.fixed_exponent is not None else (0.3, 1.0, 2.5)
        for theta in (1e-3, 1.0, 7.5):
            for eta in etas:
                yield model, theta, eta


def sweep_composites(s: Sweep) -> None:
    for model, theta, eta in _composite_cases():
        d = build(model, theta, eta)
        tag = f"{model.value} theta={theta!r} eta={eta!r}"
        s.add(f"{tag} breakpoint", lambda: d.breakpoint)
        points = np.append(POINTS, [d.breakpoint, np.nextafter(d.breakpoint, 0.0)])
        for name in ("pdf", "log_pdf", "cdf"):
            method = getattr(d, name)
            s.add(f"{tag} {name}", method, points)
            for y in points.tolist():
                s.add(f"{tag} {name}({y!r})", method, y)
        s.add(f"{tag} quantile", d.quantile, PROBABILITIES)
        for u in (0.0, 1.0, math.nan, -0.5, 0.5):
            s.add(f"{tag} quantile({u!r})", d.quantile, u)
        s.add(f"{tag} sample", d.sample, 50, 3)
        s.add(f"{tag} sample rows", d.sample, 20, [1, 2, 3])
        tail = d.parent.tail_moment_sup * eta
        orders = (0.0, -1.0, 0.1, 0.5 * tail, 0.99 * tail, tail, 2.0 * tail)
        caps = points[(points >= 0.0) & (points < 1e300)]
        for t in orders:
            s.add(f"{tag} moment({t!r})", d.moment, t)
            s.add(f"{tag} limited_moment({t!r})", d.limited_moment, t, caps)
            for b in (-1.0, math.nan, 2.0, math.inf, 1e300):
                s.add(f"{tag} limited_moment({t!r}, {b!r})", d.limited_moment, t, b)
        s.add(f"{tag} verify_composite", lambda: repr(verify_composite(d)),
              section="verify_composite")


def sweep_baselines(s: Sweep) -> None:
    for density in (WeibullDensity, InverseGammaDensity):
        for shape, scale in ((0.5, 1.0), (1.0, 2.0), (3.0, 0.1)):
            d = density(shape, scale)
            for name in ("pdf", "log_pdf", "cdf"):
                s.add(f"{d!r} {name}", getattr(d, name), POINTS)
                for y in POINTS.tolist():
                    s.add(f"{d!r} {name}({y!r})", getattr(d, name), y)
        s.add(f"{density.__name__}(0, 1)", density, 0.0, 1.0)


def sweep_fits(s: Sweep) -> None:
    for n in SIZES:
        y = build(ModelId.EXP_IG_PARETO, 1.0, 2.0).sample(n, seed=n)
        variants = {"y": y, "y*1e150": y * 1e150, "y*1e-150": y * 1e-150, "sqrt(y)": np.sqrt(y)}
        for model in ModelId:
            for name, data in variants.items():
                s.add(f"fit {model.value} n={n} {name}", lambda: repr(fit(model, data)))
    wide = build(ModelId.EXP_EXP_PARETO, 1.0, 30.0).sample(200, seed=1)
    constant = np.full(20, 3.0)
    refused = {
        "eta30": wide,
        "sqrt(eta30)": wide**0.5,
        "constant": constant,
        "n=9": np.arange(1.0, 10.0),
        "nan": np.append(wide[:20], math.nan),
        "negative": np.append(wide[:20], -1.0),
        "zero": np.append(wide[:20], 0.0),
        "span": np.array([5e-324] + [1.0] * 20),
        "huge": wide * 1e300,
        "tiny": wide * 1e-300,
    }
    for model in ModelId:
        for name, data in refused.items():
            s.add(f"fit {model.value} {name}", lambda: repr(fit(model, data)))
    for model in ModelId:
        for n, seeds in ((50, range(40, 48)), (200, range(7, 11)), (9000, (2, 5))):
            rows = build(ModelId.EXP_EXP_PARETO, 1.0, 0.8).sample(n, list(seeds))
            s.add(f"fit_batch {model.value} n={n}", lambda: _batch(model, rows))
        rows = build(ModelId.EXP_EXP_PARETO, 1.0, 18.0).sample(50, list(range(20)))
        s.add(f"fit_batch {model.value} eta=18", lambda: _batch(model, rows))
        s.add(f"fit_batch {model.value} constant", lambda: _batch(model, constant[None, :]))
        s.add(f"fit_batch {model.value} 1-d", lambda: _batch(model, wide))


def _batch(model, rows):
    outcomes, wide = fit_batch(model, rows)
    return [repr(o) if not isinstance(o, Exception) else o for o in outcomes], wide


def _write(path: str, text: str, encoding: str = "utf-8") -> None:
    with open(path, "w", encoding=encoding, newline="") as fh:
        fh.write(text)


def sweep_ingest(s: Sweep) -> None:
    values = build(ModelId.EXP_EXP_PARETO, 1.0, 0.8).sample(30, seed=17).tolist()
    plain = "".join(f"{v!r}\n" for v in values)
    files = {
        "plain.csv": plain,
        "header.csv": "amount\n" + plain,
        "two.csv": "note,amount\n" + "".join(f"x,{v!r}\n" for v in values),
        "crlf.csv": "\r\n".join(["amount,note", ""] + [f'"{v!r}","a, b"' for v in values]),
        "negative.csv": "amount\n1.5\n\n2.5\n-3\nabc\n",
        "text.csv": "1.5\noops\n2.0\n",
        "short.csv": "1,2\n3\n4,5\n",
        "unclosed.csv": '"1.5\n' + "2.5\n" * 20,
        "empty.csv": "",
        "blank.csv": "\n\n",
        "header-only.csv": "amount\n",
        "inf.csv": "1.0\ninf\n",
        "overflow.csv": "1.0\n1e300\n",
    }
    for name, text in files.items():
        _write(name, text, "utf-8-sig" if name == "crlf.csv" else "utf-8")
    for name in (*files, "missing.csv"):
        for column in (0, 1, "0", "amount", " amount ", "1_0", -1, True, 1.0):
            for scale in (1.0, 1e-6, 1e300):
                s.add(f"ingest {name} {column!r} {scale!r}",
                      lambda: ingest_csv(name, column, scale).values)


# the commands whose outputs tests/test_cli.py pins, and one of each other kind
CLI_RUNS = [
    ["density", "--model", "exp-ig-pareto", "--theta", "1.3", "--eta", "0.7", "--lo", "0",
     "--hi", "6", "--points", "300", "--cdf", "--limited-moment", "0.5",
     "--out", "curve.csv", "--json", "curve.json"],
    ["compare", "claims.csv", "--literature", "danish", "--out", "ranking.csv"],
    ["density", "--model", "exp-exp-pareto", "--theta", "1", "--eta", "0.8", "--lo", "0",
     "--hi", "6", "--points", "300", "--cdf", "--limited-moment", "0.5",
     "--out", "inf.csv", "--json", "inf.json"],
    ["fit", "claims.csv", "--model", "exp-exp-pareto", "--json", "fit.json"],
    ["fit", "claims.csv", "--model", "weibull"],
    ["compare", "claims.csv", "--criterion", "aicc", "--models", "weibull,ig-pareto-1p",
     "--json", "compare.json"],
    ["simulate", "--eta", "0.8", "--theta", "1.0", "--n", "50", "--r", "5",
     "--out", "simulate.csv", "--json", "simulate.json"],
    ["simulate", "--model", "exp-ig-pareto", "--eta", "2", "--theta", "1", "--n", "50",
     "--r", "5"],
    ["simulate", "--paper-tables", "--r", "2", "--seed", "3", "--json", "grid.json"],
    ["fit", "negative.csv", "--model", "exp-exp-pareto", "--column", "amount"],
    ["fit", "constant.csv", "--model", "weibull"],
    ["compare", "constant.csv"],
    ["density", "--model", "weibull", "--theta", "1", "--lo", "0", "--hi", "1"],
    ["fit"],
]


def sweep_cli(s: Sweep) -> None:
    claims = build(ModelId.EXP_IG_PARETO, 1.0, 2.0).sample(400, seed=5)
    _write("claims.csv", "".join(f"{float(v)!r}\n" for v in claims))
    _write("constant.csv", "3.0\n" * 20)
    inputs = set(os.listdir("."))
    for argv in CLI_RUNS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        s.add(f"cli {argv}", lambda: (code, out.getvalue(), err.getvalue()))
        for path in sorted(set(os.listdir(".")) - inputs):  # the files this run wrote
            with open(path, "rb") as fh:
                s.add(f"cli {argv} {path}", fh.read)
            os.remove(path)


def main_sweep() -> Sweep:
    s = Sweep()
    s.section = "composites"
    sweep_composites(s)
    s.section = "baselines"
    sweep_baselines(s)
    s.section = "fits"
    sweep_fits(s)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        # relative paths, so messages and the command echoed in an artifact
        # do not depend on where the sweep runs
        os.chdir(work)
        try:
            s.section = "ingest"
            sweep_ingest(s)
            s.section = "cli"
            sweep_cli(s)
        finally:
            os.chdir(here)
    return s


if __name__ == "__main__":
    sweep = main_sweep()
    for name, sha in sweep.sections.items():
        print(f"{sha.hexdigest()}  {name}")
    print(f"{sweep.sha.hexdigest()}  all")
