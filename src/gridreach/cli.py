"""Command-line surface: gen, query, verify, bench.

Exit codes: 0 success, 1 runtime or verification failure, 2 usage error.
The reachability answer goes to stdout ("YES"/"NO"), never into the exit
code, so scripted loops can tell "NO" from "crashed".
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .engine import EngineConfig, InvariantViolation, reach
from .grid import (
    FAMILIES,
    LggFormatError,
    SplitMix64,
    SubgridView,
    emit_lgg,
    gen_family,
    gen_random,
    oracle_reach,
    parse_lgg,
)
from .metrics import DEFAULT_C_S, DEFAULT_C_T, Bounds, check_bounds

_VERIFY_PROBS = (0.3, 0.5, 0.7)


class UsageError(Exception):
    pass


def _vertex(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected 'x,y', got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise UsageError(f"expected integers in 'x,y', got {text!r}") from None


def _int_list(text: str):
    try:
        return [int(s) for s in text.split(",") if s]
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None


def _float_list(text: str):
    try:
        return [float(s) for s in text.split(",") if s]
    except ValueError:
        raise UsageError(f"expected comma-separated floats, got {text!r}") from None


def _violations(m) -> int:
    return (m.stack_bound_violations + m.visit_once_violations
            + m.push_bound_violations)


def _metrics_fields(answer, n):
    m = answer.metrics
    return {
        "reachable": answer.reachable,
        "n": n,
        "k_top": m.k_top,
        "pushes": m.pushes,
        "pops": m.pops,
        "edge_queries": m.edge_queries,
        "peak_stack": m.peak_stack,
        "peak_tracked_words": m.peak_tracked_words,
    }


def cmd_gen(args) -> int:
    if args.family == "random":
        g = gen_random(args.n, args.p_north, args.p_east, args.seed)
    else:
        g = gen_family(args.family, args.n)
    with open(args.output, "w") as fh:
        fh.write(emit_lgg(g))
    print(f"wrote {args.output} ({g.edge_count} edges)")
    return 0


def cmd_query(args) -> int:
    cfg = EngineConfig(epsilon=args.epsilon, k=args.k)
    try:
        with open(args.graph) as fh:
            g = parse_lgg(fh.read())
    except (OSError, LggFormatError) as exc:
        raise UsageError(f"cannot load graph {args.graph}: {exc}") from exc
    s = _vertex(args.s)
    t = _vertex(args.t)
    t0 = time.perf_counter()
    answer = reach(g, s, t, cfg)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    print("YES" if answer.reachable else "NO")
    if _violations(answer.metrics):
        raise InvariantViolation("traversal invariant violated; rerun with checks")
    if args.metrics:
        fields = _metrics_fields(answer, g.n)
        fields["wall_ms"] = round(wall_ms, 3)
        print(json.dumps(fields))
    return 0


def cmd_verify(args) -> int:
    cfgs = [EngineConfig(epsilon=eps) for eps in args.epsilon_list]
    if args.trials < 0:
        raise UsageError("--trials must be >= 0")
    rng = SplitMix64(args.seed)
    comparisons = 0
    violations = 0
    for n in args.n_list:
        for cfg in cfgs:
            eps = cfg.epsilon
            for trial in range(args.trials):
                p_n = _VERIFY_PROBS[rng.next_below(len(_VERIFY_PROBS))]
                p_e = _VERIFY_PROBS[rng.next_below(len(_VERIFY_PROBS))]
                g = gen_random(n, p_n, p_e, rng.next_u64())
                s = (rng.next_below(n + 1), rng.next_below(n + 1))
                t = (rng.next_below(n + 1), rng.next_below(n + 1))
                expected = oracle_reach(SubgridView.whole(g), s, t)
                answer = reach(g, s, t, cfg)
                comparisons += 1
                if answer.reachable != expected:
                    graph_path = "counterexample.lgg"
                    query_path = "counterexample.json"
                    with open(graph_path, "w") as fh:
                        fh.write(emit_lgg(g))
                    with open(query_path, "w") as fh:
                        json.dump({
                            "graph": graph_path,
                            "s": list(s),
                            "t": list(t),
                            "epsilon": eps,
                            "expected": expected,
                            "got": answer.reachable,
                            "n": n,
                            "trial": trial,
                        }, fh, indent=2)
                        fh.write("\n")
                    print(f"MISMATCH n={n} epsilon={eps} s={s[0]},{s[1]} "
                          f"t={t[0]},{t[1]}: engine={answer.reachable} "
                          f"oracle={expected}; wrote {graph_path}, {query_path}")
                    return 1
                violations += _violations(answer.metrics)
    print(f"verified {comparisons} comparisons, 0 mismatches")
    if violations:
        print(f"INVARIANT {violations} traversal invariant violations "
              f"(stack bound, visit-once, push bound)")
        return 1
    return 0


def cmd_bench(args) -> int:
    # --epsilon is required, so it is checked even when --fixed-k overrides it.
    cfg = EngineConfig(epsilon=args.epsilon)
    if args.fixed_k is not None:
        cfg = EngineConfig(k=args.fixed_k)
    bounds = Bounds(c_t=DEFAULT_C_T, c_s=DEFAULT_C_S)
    for n in args.n_list:
        if args.family == "random":
            g = gen_random(n, 0.5, 0.5, 1)
        else:
            g = gen_family(args.family, n)
        t0 = time.perf_counter()
        answer = reach(g, (0, 0), (n, n), cfg)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        m = answer.metrics
        report = check_bounds(m, bounds, n, m.k_top)
        fields = _metrics_fields(answer, n)
        fields["predicted_calls"] = report["calls"]["predicted"]
        fields["predicted_words"] = report["words"]["predicted"]
        fields["recursive_calls"] = m.recursive_calls
        fields["bounds_pass"] = report["passed"]
        fields["wall_ms"] = round(wall_ms, 3)
        print(json.dumps(fields))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gridreach",
        description="Reachability in layered grid graphs in sublinear tracked space.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p-north", type=float, default=0.5)
    gen.add_argument("--p-east", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=cmd_gen)

    query = sub.add_parser("query", help="decide one reachability query")
    query.add_argument("--graph", required=True)
    query.add_argument("--s", required=True)
    query.add_argument("--t", required=True)
    query.add_argument("--epsilon", type=float)
    query.add_argument("--k", type=int)
    query.add_argument("--metrics", action="store_true")
    query.set_defaults(func=cmd_query)

    verify = sub.add_parser("verify", help="differential check against the oracle")
    verify.add_argument("--n-list", type=_int_list, required=True)
    verify.add_argument("--trials", type=int, required=True)
    verify.add_argument("--seed", type=int, required=True)
    verify.add_argument("--epsilon-list", type=_float_list, required=True)
    verify.set_defaults(func=cmd_verify)

    bench = sub.add_parser("bench", help="measure and compare against the bounds")
    bench.add_argument("--n-list", type=_int_list, required=True)
    bench.add_argument("--epsilon", type=float, required=True)
    bench.add_argument("--family", default="full", choices=FAMILIES)
    bench.add_argument("--fixed-k", type=int, default=None)
    bench.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, LggFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
