(** Differential invariants checked per generated kernel.

    For one {!Gen.t} launch case the oracle runs, in order:

    - printer/parser and codec round-trips of the generated program;
    - Baseline vs every technique ({!Regmutex.Technique.all}) through the
      heuristic compile path, comparing per-warp store traces
      ({!Regmutex.Checker.diff_store_traces});
    - fast-forward vs brute-force stepping on the baseline and RegMutex
      runs — every counter, per-reason stall attribution and store trace
      must be bit-identical;
    - a forced Bs/Es split (pressure family only) sized from the program's
      own peak pressure, run under [Srp] on a deliberately contended
      architecture (capacity 2 CTAs, 1–3 SRP sections) and under
      [Srp_paired], with dynamic verification on — plus SRP conservation
      ([in_use + free = sections] and status/bitmask/LUT agreement)
      sampled every cycle;
    - a forced RegDem demotion: a salt-derived [keep] boundary is pushed
      through {!Regmutex.Regdem.transform} regardless of profitability,
      and the spilling kernel is run under [Policy.Regdem] — store traces
      must match the baseline, fast-forward vs brute-force must stay
      bit-identical, and (strict window rule, see below) the transformed
      kernel must hit the shared-memory window out-of-bounds {e exactly}
      as often as the baseline;
    - the SIMT cross-check: for the warp-uniform families (pressure,
      barrier) a baseline run under [--simt] must be bit-identical to the
      warp-uniform baseline — counters, stall histogram and store traces;
      for the divergent family every value-safe technique (RegMutex,
      paired, OWF, RFV — RegDem's warp-granular spill window is unsound
      under divergence and is excluded by design) is run under [--simt]
      and compared to the SIMT baseline lane-for-lane
      ({!Regmutex.Checker.diff_lane_store_traces}), plus fast-forward vs
      brute-force equivalence under SIMT on the heuristic path;
    - the forward-progress watchdog: any {!Gpu_sim.Gpu.Deadlock} is a
      failure, as is a watchdog timeout.

    The strict window rule ([?strict_shared_oob], default on) promotes
    {!Gpu_sim.Stats.shared_oob} from a warn-only counter to a hard
    failure: any technique whose out-of-bounds count differs from the
    baseline's fails with [Shared_oob]. Spill traffic escaping its
    reserved window is exactly such a delta.

    Fault injection ([?inject]) perturbs the branch the fault targets
    (forced-split for the SRP faults, forced-RegDem for [Oob_spill], the
    SIMT cross-check for [Mask_corrupt]) — the oracle must then report at
    least one failure, which is how the fuzzer's own detection power is
    tested. *)

type fault =
  | Drop_acquire   (** neutralise the first [Acquire] *)
  | Early_release  (** insert a [Release] right after the first [Acquire] *)
  | Drop_mov
      (** disable the last compaction MOV across the boundary whose base
          destination is live afterwards *)
  | Oob_spill      (** push the first spill store one slot past the window *)
  | Mask_corrupt
      (** clear lane 1 from every warp's initial active mask (a runtime
          injection via the simulator, not a program mutation): caught
          only by the lane-resolved trace diff — the warp-level trace
          records the lowest active lane and stays clean on the uniform
          families, proving the lane oracle strictly stronger *)

val fault_name : fault -> string
val fault_of_string : string -> (fault, string) result

type kind =
  | Divergence         (** store traces differ from the baseline *)
  | Stats_mismatch     (** fast-forward vs brute-force not bit-identical *)
  | Deadlock           (** {!Gpu_sim.Gpu.Deadlock} raised *)
  | Timeout            (** watchdog [max_cycles] hit *)
  | Verification       (** dynamic extended-access verification tripped *)
  | Unsound_transform  (** {!Regmutex.Transform.Unsound} on a legal kernel *)
  | Conservation       (** SRP accounting invariant broken *)
  | Roundtrip          (** parser or codec round-trip diverged *)
  | Shared_oob         (** shared-memory window discipline broken *)
  | Crash              (** unexpected exception *)

val kind_name : kind -> string

type failure = { kind : kind; detail : string }

type report = {
  failures : failure list;
  injected : bool;  (** the requested fault actually applied to this case *)
}

(** Run every applicable invariant for the case. Never raises: unexpected
    exceptions become [Crash] failures. With [?inject] only the branch
    carrying the mutation runs. [?strict_shared_oob] (default [true])
    controls the hard shared-memory window rule. *)
val test_case : ?inject:fault -> ?strict_shared_oob:bool -> Gen.t -> report

(** [test_seed ?inject seed] = generate then {!test_case}. *)
val test_seed : ?inject:fault -> ?strict_shared_oob:bool -> int -> Gen.t * report

val pp_failure : Format.formatter -> failure -> unit

(** Simulations the oracle has asked for since the program started, summed
    over every case and domain. Each case memoises statistics by machine
    input (the marshalled run config and kernel), so two phases that reach
    the same input share one run; only {!machine_runs} of them simulated. *)
val simulations : unit -> int

(** Machine runs (calls of {!Gpu_sim.Gpu.run}) the oracle has made: one per
    distinct input of each case, plus every run watched cycle by cycle
    (those never come from the memo). *)
val machine_runs : unit -> int
