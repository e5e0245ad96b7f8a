(** Differential invariants checked per generated kernel.

    Every phase feeds labelled machine inputs (a run config and a kernel)
    to one checker, together with the reference each input must match.
    The checker simulates the input once through the case's memo; reports
    a {!Gpu_sim.Gpu.Deadlock}, a tripped dynamic verification, a
    {!Regmutex.Transform.Unsound} compile and a watchdog timeout as
    failures; diffs the per-warp store traces
    ({!Regmutex.Checker.diff_store_traces}) and, under SIMT, the per-lane
    ones ({!Regmutex.Checker.diff_lane_store_traces}); applies the
    shared-memory window rule to the technique and forced-RegDem runs
    (the input's {!Gpu_sim.Stats.shared_oob} count must equal the
    baseline's: spill traffic escaping its reserved window is such a
    delta); and, when the phase asks, re-runs the input brute-force and
    compares every counter and store trace.

    For one {!Gen.t} launch case the phases are, in the order the report
    lists them:

    - printer/parser and codec round-trips of the generated program;
    - Baseline vs every technique ({!Regmutex.Technique.all}) through the
      heuristic compile path, with the baseline and RegMutex runs also
      stepped brute-force;
    - a forced Bs/Es split (pressure family only) sized from the program's
      own peak pressure, run under [Srp] on a deliberately contended
      architecture (capacity 2 CTAs, 1–3 SRP sections), its brute-force
      run sampling SRP conservation ([in_use + free = sections] and
      status/bitmask/LUT agreement) every cycle, and under [Srp_paired],
      with dynamic verification on;
    - a forced RegDem demotion: a salt-derived [keep] boundary is pushed
      through {!Regmutex.Regdem.transform} regardless of profitability,
      and the spilling kernel is run under [Policy.Regdem];
    - the SIMT cross-check: for the warp-uniform families (pressure,
      barrier) a lane-resolved baseline run under [--simt] must be
      bit-identical to the warp-uniform baseline — counters, stall
      histogram and store traces; for the divergent family every
      value-safe technique (RegMutex, paired, OWF, RFV — RegDem's
      warp-granular spill window is unsound under divergence and is
      excluded by design) is run under [--simt] against the SIMT baseline
      lane-for-lane, plus fast-forward vs brute-force equivalence under
      SIMT on the heuristic path.

    Fault injection ([?inject]) mutates the program of the phase the
    fault targets (the forced split for the SRP faults and [Drop_mov],
    the forced demotion for [Oob_spill], a SIMT run of the case's program
    for [Mask_corrupt]) and runs only that phase — the oracle must then
    report at least one failure, which is how the fuzzer's own detection
    power is tested. *)

type fault =
  | Drop_acquire   (** neutralise the first [Acquire] *)
  | Early_release  (** insert a [Release] right after the first [Acquire] *)
  | Drop_mov
      (** disable the last compaction MOV across the boundary whose base
          destination is live afterwards *)
  | Oob_spill      (** push the first spill store one slot past the window *)
  | Mask_corrupt
      (** prefix [cmp.eq rN, %laneid, 1; @rN bra] to an appended exit
          ([rN] a fresh register), so lane 1 of every warp exits before
          its first store; not applied when [rN] would exceed
          {!Gpu_isa.Regset.max_reg}. Caught by the lane-resolved trace
          diff: the warp-level trace records the lowest active lane and
          stays clean on the uniform families, proving the lane oracle
          strictly stronger *)

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
    exceptions become [Crash] failures. With [?inject] only the phase
    carrying the mutation runs. *)
val test_case : ?inject:fault -> Gen.t -> report

(** [test_seed ?inject seed] = generate then {!test_case}. *)
val test_seed : ?inject:fault -> int -> Gen.t * report

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
