"""Command-line front door: design, table, simulate, estimate, privacy, verify.

Exit codes: 0 success, 1 verification failure, 2 input validation (including
``RESOURCE_LIMIT``, a simulate or privacy run refused before it allocates),
3 I/O, 4 internal error. Failures print a single JSON object
``{"code": ..., "message": ...}`` on stderr; an internal error (``INTERNAL_ERROR``)
adds the traceback. All commands are deterministic given their inputs and
``--seed``. ``simulate`` runs serially below ``simulation.POOL_MIN_N``
respondents per replicate and with one thread per CPU at or above it;
``RRKIT_THREADS`` (1 to ``simulation.MAX_THREADS``) overrides that and changes
speed, never output.

Each command imports only what it runs, since start-up is most of its time.
Only ``simulate`` and ``verify`` load numpy: ``design`` and ``table`` need
only ``design`` and ``model``, and ``privacy`` and ``estimate`` import their
own module, which measures one population or estimates one sample on Python
floats. ``verify`` does not load ``simulation``, and ``simulate`` does not
load ``verification``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import design as design_mod
from .model import (
    Device,
    PolicyMode,
    PrivacyPolicy,
    ResponseSample,
    SurveyDefinition,
    ValidationError,
    _read_json,
    _support_size,
    load_survey,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    """argparse parser that reports bad arguments through the structured-error
    path, and reads a token that ``float()`` accepts, such as ``-1e-3`` or
    ``-inf``, as a value: no option looks like a number."""

    def error(self, message: str):
        raise ValidationError("BAD_ARGS", message)

    def _parse_optional(self, arg_string: str):
        # argparse itself takes only plain negative decimals, such as -0.5, as values
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _list(text: str, kind: type, what: str) -> tuple:
    """The comma-separated values of an option, each read by ``kind`` (int or
    float); blank entries are skipped."""
    try:
        return tuple(kind(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValidationError("BAD_GRID", f"{what} must be comma-separated {noun}, got {text!r}") from None


def _emit(text: str, out_path: str | None) -> None:
    """Write ``text`` to the output file, or stdout when no path was given."""
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_json(doc: dict, out_path: str | None) -> None:
    # NaN and infinity are not JSON; reaching them here is a bug, not input
    _emit(json.dumps(doc, indent=2, allow_nan=False) + "\n", out_path)


def _resolve_device(args, survey: SurveyDefinition) -> Device:
    """Device parameter for data-facing commands: an explicit --p wins; otherwise
    the survey's privacy policy designs one; with neither, refuse."""
    if args.p is not None:
        return Device(p=args.p, m=survey.support.m)
    if survey.policy is not None:
        device, _ = design_mod.design_device(survey.policy, survey.support)
        return device
    raise ValidationError(
        "MISSING_P", "no device parameter: pass --p or include a 'privacy' policy in the survey"
    )


def _require_population(survey: SurveyDefinition):
    if survey.population is None:
        raise ValidationError("MISSING_PI", "this command needs 'pi' in the survey definition")
    return survey.population


def cmd_design(args) -> int:
    if args.survey is not None and (args.m is not None or args.xi is not None):
        raise ValidationError("BAD_ARGS", "design takes --survey, or --m with --xi, not both")
    if args.survey is not None:
        survey = load_survey(args.survey)
        if survey.policy is None:
            raise ValidationError("BAD_SURVEY", "survey definition has no 'privacy' policy to design for")
        _, certificate = design_mod.design_device(survey.policy, survey.support)
    elif args.m is not None and args.xi is not None:
        m = _support_size(args.m)  # a bad m is reported before a bad xi
        policy = PrivacyPolicy(mode=PolicyMode.ALL_STIGMATIZING, xi=args.xi)
        certificate = design_mod.design_certificate(policy, m)
    else:
        raise ValidationError("BAD_ARGS", "design needs --survey, or --m together with --xi")
    _emit_json(certificate.to_json_dict(), args.out)
    return EXIT_OK


def cmd_table(args) -> int:
    ms = _list(args.m, int, "--m") if args.m is not None else design_mod.DEFAULT_TABLE_MS
    xis = _list(args.xi, float, "--xi") if args.xi is not None else design_mod.DEFAULT_TABLE_XIS
    table = design_mod.p0_table(ms, xis)
    if args.format == "json":
        _emit_json(table.to_json_dict(), args.out)
    else:
        _emit(table.to_csv(), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import simulation

    survey = load_survey(args.survey)
    population = _require_population(survey)
    device = _resolve_device(args, survey)
    config = simulation.SimulationConfig(
        support=survey.support,
        population=population,
        device=device,
        n=args.n,
        replicates=args.replicates,
        seed=args.seed,
    )
    summary = simulation.run_replicates(config, keep_replicates=args.replicate_csv is not None)
    doc = summary.to_json_dict()
    doc["p"] = device.p
    # the CSV first, so that a path it cannot write leaves stdout empty
    if args.replicate_csv is not None:
        lines = ["replicate,mu_hat"]
        lines.extend(f"{rec.replicate},{rec.mu_hat!r}" for rec in summary.records)
        _emit("\n".join(lines) + "\n", args.replicate_csv)
    _emit_json(doc, args.out)
    return EXIT_OK


def _load_counts(path: str) -> tuple[int, ...]:
    doc = _read_json(path, "BAD_COUNTS")
    if not isinstance(doc, list):
        raise ValidationError("BAD_COUNTS", f"{path}: expected a JSON array of counts")
    return tuple(doc)


def cmd_estimate(args) -> int:
    from . import estimation

    survey = load_survey(args.survey)
    device = _resolve_device(args, survey)
    sample = ResponseSample(counts=_load_counts(args.counts))
    report = estimation.estimate_report(sample, device, survey.support)
    _emit_json(report.to_json_dict(), args.out)
    return EXIT_OK


def cmd_privacy(args) -> int:
    from . import privacy

    survey = load_survey(args.survey)
    population = _require_population(survey)
    device = _resolve_device(args, survey)
    # a policy's mode and index set match the support (model.validate_policy)
    support = survey.support
    report = privacy.privacy_report(
        device,
        population,
        mode=PolicyMode.ALL_STIGMATIZING
        if support.all_stigmatizing
        else PolicyMode.NONSTIGMATIZING_SUBSET,
        nonstigmatizing=support.nonstigmatizing_indices,
        c=None if survey.policy is None else survey.policy.c,
    )
    _emit_json(report.to_json_dict(), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verification

    report = verification.run_verification(grid_step=args.grid_step)
    if args.format == "json":
        _emit_json(report.to_json_dict(), args.out)
    else:
        lines = [
            f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}"
            for check in report.checks
        ]
        lines.append("verification passed" if report.passed else "verification FAILED")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def build_parser() -> _Parser:
    """The argument parser. Each subcommand names its handler, which
    :func:`main` looks up among this module's functions when it runs."""
    parser = _Parser(prog="rrkit", description="Randomized-response survey toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="choose the most efficient device meeting a privacy policy")
    p_design.add_argument("--survey", help="survey definition JSON (with a 'privacy' policy)")
    p_design.add_argument("--m", type=int, help="number of support values (with --xi; all-stigmatizing)")
    p_design.add_argument("--xi", type=float, help="privacy threshold (with --m)")
    p_design.add_argument("--out", help="write the certificate JSON here instead of stdout")
    p_design.set_defaults(handler="cmd_design")

    p_table = sub.add_parser("table", help="tabulate designed p0 over a grid of m and xi")
    p_table.add_argument("--m", help="comma-separated m values (default 3,4,5)")
    p_table.add_argument("--xi", help="comma-separated xi values (default 0.1,0.2,0.3,0.4)")
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument("--out", help="write the table here instead of stdout")
    p_table.set_defaults(handler="cmd_table")

    p_sim = sub.add_parser("simulate", help="Monte Carlo replication of a survey")
    p_sim.add_argument("--survey", required=True, help="survey definition JSON (needs 'pi')")
    p_sim.add_argument("--n", type=int, required=True, help="respondents per replicate")
    p_sim.add_argument("--replicates", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--p", type=float, help="device parameter (default: designed from the survey's policy)")
    p_sim.add_argument("--out", help="write the summary JSON here instead of stdout")
    p_sim.add_argument("--replicate-csv", help="also write per-replicate mean estimates as CSV")
    p_sim.set_defaults(handler="cmd_simulate")

    p_est = sub.add_parser("estimate", help="estimate proportions and the mean from observed counts")
    p_est.add_argument("--survey", required=True, help="survey definition JSON")
    p_est.add_argument("--counts", required=True, help="JSON array file of response counts")
    p_est.add_argument("--p", type=float, help="device parameter (default: designed from the survey's policy)")
    p_est.add_argument("--out", help="write the report JSON here instead of stdout")
    p_est.set_defaults(handler="cmd_estimate")

    p_priv = sub.add_parser("privacy", help="privacy diagnostics for a survey at a device parameter")
    p_priv.add_argument("--survey", required=True, help="survey definition JSON (needs 'pi')")
    p_priv.add_argument("--p", type=float, help="device parameter (default: designed from the survey's policy)")
    p_priv.add_argument("--out", help="write the report JSON here instead of stdout")
    p_priv.set_defaults(handler="cmd_privacy")

    p_verify = sub.add_parser("verify", help="run the oracle self-checks")
    p_verify.add_argument("--grid-step", type=float, default=0.05, help="simplex grid spacing (must divide 1)")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.add_argument("--out", help="write the report here instead of stdout")
    p_verify.set_defaults(handler="cmd_verify")

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> _Parser:
    """The parser, built once per process: building it takes ~2.5 ms the
    first time in a fresh process and ~1 ms after that, against ~2.5 ms for
    a whole in-process ``simulate --n 10 --replicates 2000`` (medians on a
    2-vCPU x86 machine)."""
    return build_parser()


def _fail(exit_code: int, code: str, message: str, **extra) -> int:
    """Write one structured error to stderr, a JSON object on a line of its
    own, and return ``exit_code``."""
    json.dump({"code": code, "message": message, **extra}, sys.stderr)
    sys.stderr.write("\n")
    return exit_code


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return globals()[args.handler](args)
    except ValidationError as exc:
        return _fail(EXIT_VALIDATION, exc.code, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, "IO_ERROR", str(exc))
    except Exception as exc:  # noqa: BLE001 - any other failure is a bug, reported in the contract's form
        import traceback

        return _fail(
            EXIT_INTERNAL, "INTERNAL_ERROR", f"{type(exc).__name__}: {exc}",
            traceback=traceback.format_exc(),
        )


if __name__ == "__main__":
    sys.exit(main())
