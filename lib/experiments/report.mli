(** Performance-trajectory report: ingest the committed [BENCH_*.json]
    artifacts, compare them against the checked-in baseline
    ([bench/trajectory.json]) and fail on regressions.

    Every bench harness (cycles, soa, telemetry, regdem, simt) writes
    one JSON artifact at the repo root. {!scan} normalizes each known
    kind into

    - {e metrics}: named scalars with a direction ([higher_better]) and
      the grid config ([quick] or [full]) they were measured under —
      speedups, occupancy gains, the telemetry overhead as a
      [1 + pct/100] factor;
    - {e invariants}: named booleans that must hold outright
      (fingerprint identity across stepping modes and techniques).

    {!check} compares a scan against a baseline metric list: each metric
    present in both (same key {e and} same config — quick and full
    timings are never comparable) gets a ratio normalized so [>= 1] is
    an improvement; the check fails when any ratio or the geomean of
    all ratios falls below [1 - tolerance], any invariant is false, or a
    baseline metric is missing from the scan (its artifact was deleted
    or renamed). A metric the baseline lacks, or one measured under
    another config, is reported as skipped, so adding a bench never
    breaks the gate retroactively. *)

type metric = {
  key : string;  (** e.g. ["soa_core.geomean_speedup_compute"] *)
  value : float;
  higher_better : bool;
  config : string;  (** ["quick"] | ["full"] (or [""] when unstated) *)
}

type invariant = { inv_key : string; ok : bool }

type snapshot = {
  metrics : metric list;
  invariants : invariant list;
  sources : string list;  (** artifact filenames ingested, sorted *)
}

(** Walk up from [start] (default the working directory) to the first
    directory containing [dune-project] — where the bench artifacts and
    [bench/trajectory.json] live. *)
val find_repo_root : ?start:string -> unit -> string option

(** Ingest every [BENCH_*.json] directly under [dir]. Unknown bench
    kinds and unparseable files are skipped (they appear in no list);
    the scan never raises. *)
val scan : dir:string -> snapshot

(** Read a baseline written by {!write_baseline}. *)
val load_baseline : string -> (metric list, string) result

(** Write [snapshot]'s metrics as the new baseline (pretty JSON). *)
val write_baseline : string -> snapshot -> unit

type verdict = {
  v_key : string;
  v_config : string;
  current : float;
  baseline : float;
  ratio : float;  (** normalized: [>= 1] is an improvement *)
}

type outcome = {
  compared : verdict list;
  skipped : (string * string) list;  (** key, reason *)
  geomean : float option;  (** of all compared ratios; [None] if none *)
  failures : string list;  (** empty = the check passes *)
}

(** [check ~tolerance snapshot baseline] — [tolerance] (default [0.05])
    is the allowed fractional slowdown per metric and on the geomean. *)
val check : ?tolerance:float -> snapshot -> metric list -> outcome

val pp_snapshot : Format.formatter -> snapshot -> unit

val pp_outcome : Format.formatter -> outcome -> unit
