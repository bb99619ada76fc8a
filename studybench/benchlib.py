"""Arithmetic and checks shared by the study benchmark's scripts.

Nothing here builds or runs a study, so test_benchlib.py can pin all of
it on hand-made harness records.
"""

import hashlib
import statistics

# The six scan shards, in Study's job order (proto::scanned_protocols()).
SHARD_PROTOCOLS = ("telnet", "mqtt", "coap", "amqp", "xmpp", "upnp")

# Counts that must repeat exactly in every run of a workload at one seed.
EXACT_COUNTS = (
    "sim.scan_events",
    "sim.main_events",
    "fabric.packets_sent",
    "tcp.connects",
    "scanner.probes",
    "honeynet.events",
    "telescope.packets",
)


def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q3 = quartiles(values)
    return ratio(q3 - q1, statistics.median(values))


def ratio(numerator, denominator):
    """numerator / denominator, or 0.0 when there is nothing to divide by."""
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced, untraced):
    """Per-layer metrics of one traced study.

    traced and untraced are the harness's JSON objects for the traced run
    and the untraced run of the same workload and seed.
    """
    layers = traced["layers"]
    counts = traced["counts"]
    probes = counts["scanner.probes"]
    scan_s = layers["phase.scan_s"]
    attack_s = layers["phase.attack_month_s"]
    shard_wall = [layers[f"shard.{p}_s"] for p in SHARD_PROTOCOLS]
    shard_cpu = sum(layers[f"shard.{p}_cpu_s"] for p in SHARD_PROTOCOLS)
    sent = counts["fabric.packets_sent"]
    metrics = {
        "phase.scan_s": scan_s,
        "phase.datasets_s": layers["phase.datasets_s"],
        "phase.attack_month_s": attack_s,
        "phase.correlate_s": layers["phase.correlate_s"],
        "mem.hwm_after_scan_mb": layers["mem.hwm_after_scan_mb"],
        "mem.hwm_after_attack_month_mb":
            layers["mem.hwm_after_attack_month_mb"],
        "shard.cpu_sum_s": shard_cpu,
        "shard.critical_path_share": ratio(max(shard_wall), scan_s),
        "sim.scan_events": counts["sim.scan_events"],
        "sim.main_events": counts["sim.main_events"],
        "sim.events_per_probe": ratio(counts["sim.scan_events"], probes),
        "sim.events_per_s": ratio(counts["sim.scan_events"], shard_cpu),
        "fabric.packets_sent": sent,
        "fabric.packets_per_probe": ratio(sent, probes),
        "fabric.faulted_share": ratio(layers["fabric.packets_faulted"], sent),
        "tcp.connects": counts["tcp.connects"],
        "tcp.connects_per_probe": ratio(counts["tcp.connects"], probes),
        "tcp.connect_timeouts": layers["tcp.connect_timeouts"],
        "scanner.probes": probes,
        "scanner.probes_per_s": ratio(probes, scan_s),
        "scanner.retries_per_probe": ratio(layers["scanner.retries"], probes),
        "scanner.responsive_share": ratio(layers["scanner.responsive"], probes),
        "scanner.unresolved_share": ratio(layers["scanner.unresolved"], probes),
        "devices.hosts": layers["devices.hosts"],
        "devices.materialized": layers["devices.materialized"],
        "classify.s": layers["classify.s"],
        "classify.findings": layers["classify.findings"],
        "honeynet.events": counts["honeynet.events"],
        "honeynet.events_per_s": ratio(counts["honeynet.events"], attack_s),
        "telescope.packets": counts["telescope.packets"],
        "telescope.flowtuples": layers["telescope.flowtuples"],
        "telescope.packets_per_s": ratio(counts["telescope.packets"], attack_s),
        "trace.recorded": layers["trace.recorded"],
        "trace.dropped_share":
            ratio(layers["trace.dropped"], layers["trace.recorded"]),
        "bench.trace_overhead_s": traced["study_s"] - untraced["study_s"],
    }
    for protocol, wall in zip(SHARD_PROTOCOLS, shard_wall):
        metrics[f"shard.{protocol}_s"] = wall
    return metrics


class Checker:
    """Counts operations and checks each study's outputs.

    pinned_digest is the reference SHA-256 of the rendered reports, or None
    when the seed has no pin; then the first study's digest is the one the
    others must match.
    """

    def __init__(self, pinned_digest):
        self.digest = pinned_digest
        self.counts = None
        self.attempted = 0
        self.failures = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def check(self, label, record, reports, error):
        """Checks one study: its harness record, report bytes and error."""
        if error is not None:
            self.record(label, [error])
            return
        problems = []
        if not record["packets_conserved"]:
            problems.append("packet conservation broken")
        if not record["probes_conserved"]:
            problems.append("probe conservation broken")
        digest = hashlib.sha256(reports).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            problems.append(f"report digest {digest} != {self.digest}")
        counts = {name: record["counts"][name] for name in EXACT_COUNTS}
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            problems.append(f"exact counts {counts} != {self.counts}")
        self.record(label, problems)

    @property
    def failed(self):
        return len(self.failures)
