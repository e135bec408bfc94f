"""Every settable default in the package, recorded so that a new option shows.

A defaulted function parameter or a defaulted dataclass init field is a knob
a caller may turn.  The sets below are what the package offers; adding,
renaming or removing one makes this test fail until the set is updated in
the same change, on purpose.
"""

import ast
from pathlib import Path

import ghz3d

PACKAGE = Path(ghz3d.__file__).parent

DEFAULTED_PARAMETERS = {
    "cli.main(argv)",
    "contradiction.measurement_protocol(ops)",
    "elements.parity_sorter(convention)",
    "experiment.SourceAmplitudes.from_ratios(c1_over_c2)",
    "experiment.ghz_relabel_map(tol)",
    "experiment.spdc_state(include_c2)",
    "experiment.spdc_state(tag)",
    "spectral.p4_limit(order)",
    "spectral.p4_numeric(order)",
    "spectral.visibility_numeric(order)",
    "states.ModeLabel.__new__(tag)",
    "tomography.estimate_fidelity(accidentals)",
    "tomography.estimate_fidelity(n_resamples)",
    "tomography.estimate_fidelity(seed)",
    "tomography.estimate_fidelity(weights)",
    "tomography.ideal_ghz(weights)",
    "tomography.simulate_counts(sample)",
    "tomography.simulate_counts(seed)",
}

DEFAULTED_INIT_FIELDS = {
    "counts.RateModel.pair_rate",
    "counts.RateModel.pairs",
    "counts.RateModel.singles",
    "elements.ElementSpec.params",
    "elements.SorterConvention.odd_swaps",
    "elements.SorterConvention.swap_phase",
    "experiment.PipelineConfig.cmp_ket",
    "experiment.PipelineConfig.elements_override",
    "experiment.PipelineConfig.include_c2",
    "experiment.PipelineConfig.mirrors",
    "experiment.PipelineConfig.overlap",
    "experiment.PipelineConfig.restrict_detection",
    "experiment.PipelineConfig.sorter",
    "experiment.PipelineConfig.source1",
    "experiment.PipelineConfig.source2",
    "experiment.SourceAmplitudes.c2",
    "states.LinearMap.unitary",
    "tomography.PlanSetting.weight",
    "tomography.ProjKet.b",
    "tomography.ProjKet.kind",
}


def _not_init(value: ast.expr) -> bool:
    """Whether a class-level default is ``field(..., init=False)``."""
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords
    )


def _defaults() -> tuple[set[str], set[str]]:
    params: set[str] = set()
    fields: set[str] = set()

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                named = positional[len(positional) - len(a.defaults) :]
                named += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                params.update(f"{prefix}.{child.name}({arg.arg})" for arg in named)
                visit(child, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                for stmt in child.body:
                    if (
                        isinstance(stmt, ast.AnnAssign)
                        and stmt.value is not None
                        and not _not_init(stmt.value)
                    ):
                        fields.add(f"{prefix}.{child.name}.{stmt.target.id}")
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return params, fields


def _diff(found: set[str], recorded: set[str]) -> str:
    return f"added {sorted(found - recorded)}, removed {sorted(recorded - found)}"


def test_defaulted_parameters_are_the_recorded_set():
    params, _ = _defaults()
    assert params == DEFAULTED_PARAMETERS, (
        "the package's defaulted parameters changed: "
        f"{_diff(params, DEFAULTED_PARAMETERS)}; if that is intended, update "
        "DEFAULTED_PARAMETERS in this file in the same change"
    )


def test_defaulted_init_fields_are_the_recorded_set():
    _, fields = _defaults()
    assert fields == DEFAULTED_INIT_FIELDS, (
        "the package's defaulted init fields changed: "
        f"{_diff(fields, DEFAULTED_INIT_FIELDS)}; if that is intended, update "
        "DEFAULTED_INIT_FIELDS in this file in the same change"
    )
