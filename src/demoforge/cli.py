"""Command line front end: run campaigns, evaluate policies, audit datasets.

Exit codes: 0 on success, 1 when an audit finds broken demos, 2 for
configuration problems, 3 when the gateway gives up.
"""

from __future__ import annotations

import functools
import json
import sys

import click
import yaml

from .annotation import scripted_annotate
from .campaign import (
    CampaignConfig,
    CampaignReport,
    ConfigError,
    SchemaViolation,
    _check_int,
    _check_number,
    audit_dataset,
    ensemble_runner,
    evaluate_policy,
    feedforward_runner,
    run_campaign,
    scripted_runner,
)
from .gateway import GatewayConfig, GatewayError, HttpGateway
from .simworld import BUNDLED_TASKS, TaskSpec, record_demo


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConfigError as err:
            _fail(2, str(err))
        except GatewayError as err:
            _fail(3, str(err))

    return wrapper


def _load_yaml(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {path}: {err}") from err
    except (yaml.YAMLError, RecursionError) as err:
        raise ConfigError(f"malformed config {path}: {err}") from err
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be a mapping, got {type(doc).__name__}")
    return doc


def _parse_config(path: str) -> tuple[CampaignConfig, HttpGateway | None]:
    doc = _load_yaml(path)
    unknown = set(doc) - {"campaign", "gateway"}
    if unknown:
        raise ConfigError(f"unknown top-level config sections: {sorted(unknown, key=repr)}")
    if "campaign" not in doc:
        raise ConfigError("config needs a 'campaign' section")
    cfg = CampaignConfig.from_dict(doc["campaign"])
    gateway = None
    if cfg.annotator == "llm" or cfg.retargeter == "llm":
        section = doc.get("gateway")
        if not isinstance(section, dict):
            raise ConfigError("llm mode needs a 'gateway' section with an endpoint")
        try:
            gateway = HttpGateway(GatewayConfig.from_dict(section))
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad gateway section: {err}") from err
    return cfg, gateway


@click.group()
def main() -> None:
    """Generate, evaluate, and audit demonstration datasets."""


@main.command()
@click.option("-c", "--config", "config_path", required=True, type=click.Path(), help="YAML campaign config.")
@click.option("--resume", is_flag=True, help="Continue from the checkpoint instead of starting over.")
@click.option("--report-out", type=click.Path(), default=None, help="Also write the report as JSON.")
@_guarded
def generate(config_path: str, resume: bool, report_out: str | None) -> None:
    """Run a data-generation campaign until it hits its success goal."""
    cfg, gateway = _parse_config(config_path)
    report = run_campaign(cfg, gateway=gateway, resume=resume)
    click.echo(report.render_table())
    if report_out:
        try:
            with open(report_out, "w") as fh:
                json.dump(report.to_json(), fh, indent=2)
        except OSError as err:
            raise ConfigError(f"cannot write report {report_out}: {err}") from err


@main.command()
@click.option("--task", required=True, type=click.Choice(sorted(BUNDLED_TASKS)))
@click.option(
    "--policy",
    type=click.Choice(["scripted", "feedforward", "ensemble"]),
    default="scripted",
    show_default=True,
)
@click.option("--trials", default=50, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--source-seed", default=1001, show_default=True, help="Scene seed for the source demo (feedforward/ensemble).")
@click.option("--noise-std", default=0.0, show_default=True, help="Retarget noise sigma in meters (feedforward/ensemble).")
@_guarded
def evaluate(task: str, policy: str, trials: int, seed: int, source_seed: int, noise_std: float) -> None:
    """Measure a policy's success rate over seeded fresh scenes."""
    if trials < 1:
        raise ConfigError("--trials must be >= 1")
    _check_number("--noise-std", noise_std, 0.0)
    for name, value in (("--seed", seed), ("--source-seed", source_seed)):
        _check_int(name, value, 0)
    spec = TaskSpec(task)
    if policy == "scripted":
        runner = scripted_runner()
    else:
        source = record_demo(spec, source_seed, f"{task}-src")
        annotation = scripted_annotate(source, task)
        make = feedforward_runner if policy == "feedforward" else ensemble_runner
        runner = make(annotation, source, noise_std=noise_std)
    rep = evaluate_policy(runner, spec, trials, seed=seed)
    click.echo(
        f"{policy} on {task}: {rep.successes}/{rep.n_trials} "
        f"(rate {rep.rate:.3f}, 95% CI [{rep.ci_low:.3f}, {rep.ci_high:.3f}])"
    )


@main.command()
@click.argument("dataset", type=click.Path())
@_guarded
def replay(dataset: str) -> None:
    """Audit a dataset: every demo must replay to success from its seed."""
    try:
        result = audit_dataset(dataset)
    except (OSError, SchemaViolation) as err:
        raise ConfigError(f"cannot audit {dataset}: {err}") from err
    click.echo(f"replayed {result.replayed_ok}/{result.total} demos successfully")
    if not result.all_ok:
        for demo_id in result.failed_ids:
            click.echo(f"  failed: {demo_id}", err=True)
        sys.exit(1)


@main.command()
@click.argument("report_json", type=click.Path())
@_guarded
def report(report_json: str) -> None:
    """Render a saved campaign report as a table."""
    try:
        with open(report_json) as fh:
            doc = json.load(fh)
        table = CampaignReport.from_json(doc).render_table()
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as err:  # JSONDecodeError is a ValueError
        raise ConfigError(f"cannot read report {report_json}: {err}") from err
    click.echo(table)


if __name__ == "__main__":
    main()
