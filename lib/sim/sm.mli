(** One streaming multiprocessor: resident CTAs/warps, warp schedulers,
    barrier bookkeeping and policy enforcement (baseline, RegMutex SRP,
    paired-warps, OWF, RFV). *)

(** Raised in verification mode when a transformed program accesses an
    extended-set register without holding an SRP section, or any register
    beyond [|Bs| + |Es|] — i.e. the compiler pass emitted unsound code. *)
exception Verification_failure of string

type t

(** A run's fixed SM inputs (architecture, policy, kernel, execution
    model) with the per-pc precomputation they determine: latencies,
    register-port counts, decoded instructions, issue classes, and the
    reconvergence table under [simt]. Built once per run and shared
    read-only by every SM of it. *)
type tables

(** [tables ?simt cfg ~policy ~kernel] builds the tables in one pass over
    the program. [simt] (default [false]) switches on per-thread (SIMT)
    execution: lane-resolved register values, predicated execution under
    an active-lane mask, and an immediate-post-dominator reconvergence
    stack per warp slot. Timing stays warp-granular, so a warp-uniform
    program runs bit-identically in both models.
    @raise Invalid_argument when an RFV policy's live table does not
    match the program's length. *)
val tables :
  ?simt:bool -> Gpu_uarch.Arch_config.t -> policy:Policy.t -> kernel:Kernel.t ->
  tables

(** [create tables ~sm_id ...] builds one SM running [tables]' kernel
    under its architecture, policy and execution model. Under [simt], a
    warp launched under the full mask runs collapsed on its warp-uniform
    register row until it first reads [%laneid], then expands into lane
    rows. [corrupt_mask] clears the given lanes from every warp's initial
    active mask — a fault-injection hook for the fuzz oracle's
    per-lane-trace self-test (never set in normal runs); such warps launch
    expanded. [lane_resolved] (default [false]) launches every warp
    expanded, the reference the differential tests compare against.
    @raise Invalid_argument when the SM would hold more than 62 warp slots
    (slots are bits of one native int in the issue masks). *)
val create :
  ?telemetry:Telemetry.Sink.t ->
  ?corrupt_mask:int ->
  ?lane_resolved:bool ->
  tables ->
  sm_id:int ->
  memory:Memory.t ->
  mem_sys:Mem_system.t ->
  stats:Stats.t ->
  record_stores:bool ->
  trace_warp0:bool ->
  t

(** Resident-CTA capacity under the policy's resource accounting. *)
val cta_capacity : t -> int

(** [cta_capacity_for cfg ~policy ~kernel] — the same computation without
    building an SM (used by compile-time decisions, e.g. whether OWF
    sharing raises occupancy at all). *)
val cta_capacity_for :
  Gpu_uarch.Arch_config.t -> policy:Policy.t -> kernel:Kernel.t -> int

(** [srp_sections_for cfg ~policy ~kernel] — the {!srp_sections} an SM
    built by {!create} would report, without building one.
    @raise Invalid_argument under the paired-warps or OWF policy when the
    kernel's CTAs hold an odd number of warps, as {!create} does. *)
val srp_sections_for :
  Gpu_uarch.Arch_config.t -> policy:Policy.t -> kernel:Kernel.t -> int

(** Usable SRP sections (0 for non-SRP policies). *)
val srp_sections : t -> int

val resident_ctas : t -> int
val resident_warps : t -> int
val retired_ctas : t -> int

(** SRP sections currently acquired (0 for non-SRP policies). *)
val srp_in_use : t -> int

(** [try_launch t ~global_cta ~cycle] places a CTA if a slot and resources
    are free; returns [true] on success. At most one launch per cycle is
    attempted by the driver. *)
val try_launch : t -> global_cta:int -> cycle:int -> bool

(** Can a CTA be placed right now (free slot and, under RFV, admissible
    register demand)? Pure; the fast-forward driver uses it to decide
    whether CTA dispatch bounds the clock jump. *)
val can_launch : t -> bool

(** Advance one cycle: every scheduler issues at most one instruction.
    Each scheduler walks only its eligible warps (see {!issue_state_ok});
    a scheduler with none costs one mask test. Each pc is decoded once,
    when the SM is built, into an {!Exec.decode} closure and an issue
    class; warps whose class settles the residual check (plain warps, and
    global-access warps once the memory-slot answer is known) are decided
    off per-class masks, so the check runs only for the rest. *)
val step : t -> cycle:int -> unit

(** Attribute an idle scheduler slot to the most specific blockage among
    the resident warps. Pure observation: probing never mutates warp
    state, statistics, or the telemetry sink, no matter how many idle
    schedulers classify the same cycle.

    Cost: O(eligible stateful warps). Only the warps that are [Ready]
    with their scoreboard bound passed and whose class does not settle
    the answer get the residual (memory slot, register policy) check,
    stopping at the policy's top rank; plain, global, scoreboard and
    barrier warps are read off their masks. *)
val classify_idle : t -> cycle:int -> Stats.stall_reason

(** [idle_summary t ~cycle] is {!classify_idle} plus the SM's min-wakeup
    cycle: the earliest future cycle at which any resident warp's issue
    eligibility (or classification) could change while no instruction
    issues anywhere — scoreboard completions ([Warp.ready_at]) and memory
    slot completions. Stalls that only another warp's issue can end
    (acquire, RFV registers, barriers) contribute no bound; [max_int]
    means "asleep until an external event". Pure observation, except that
    the residual checks that run count in [Stats.issue_candidates] (the GPU driver
    calls this on every frozen cycle a fast-forward run visits; brute-force
    stepping skips the frozen cycles before the last summary's wakeup).

    Cost: O(eligible stateful warps) for the classification as in
    {!classify_idle} (without the early stop), plus O(pending warps) for
    the earliest scoreboard completion. *)
val idle_summary : t -> cycle:int -> Stats.stall_reason * int

(** [account_idle_span t ~from ~reason ~span] records [span] fully idle
    cycles starting at [from] at once: per skipped cycle, every scheduler
    bumps [reason] (and the acquire-stall counter when applicable) exactly
    as per-cycle stepping would have, and the telemetry probe's open stall
    episode extends over the span. No-op when the SM has no resident
    warps. *)
val account_idle_span :
  t -> from:int -> reason:Stats.stall_reason -> span:int -> unit

(** [issue_state_ok t ~cycle] — test hook: after bringing the issue state
    up to [cycle] (as {!step} does first), do the SM's issue masks equal a
    from-scratch recomputation from every slot's status and [ready_at]?
    Eligible: [Ready] and [ready_at <= cycle]; pending: [Ready] and
    [ready_at > cycle], each filed in wakeup-wheel bucket
    [ready_at land 63]; parked: at a barrier. The class masks must also
    equal a recomputation from every [Ready] warp's pc (plain: the
    residual check can only answer "can issue"; global: its only
    condition is a free memory slot), and the residual check must agree
    with each such warp's class. Call it between steps, with the cycle
    just stepped or a later one. *)
val issue_state_ok : t -> cycle:int -> bool

(** Close the telemetry probe's open spans at the run's final cycle (the
    GPU driver calls this once after the main loop). No-op without a
    telemetry sink. *)
val finalize_probe : t -> cycle:int -> unit

(** Per-warp snapshot for deadlock diagnostics: who is stuck where, on
    what, and whether it holds an extended set. *)
type warp_diag = {
  d_cta : int;            (** global CTA index *)
  d_warp : int;           (** warp within the CTA *)
  d_pc : int;
  d_status : Warp.status;
  d_block : Stats.stall_reason;  (** why the warp cannot issue right now *)
  d_ready_at : int;       (** scoreboard bound; [max_int] = no bound *)
  d_holds_ext : bool;     (** holds an SRP section / pair set / OWF regs *)
  d_held_section : int option;
      (** which SRP section (or pair index) the warp holds, so deadlock
          reports name the holder, not just the waiter *)
  d_held_cycles : int;
      (** how long the section has been held ([Warp.acquired_at] based);
          [0] when nothing is held *)
}

(** Snapshot of every non-exited resident warp, in slot order. Pure
    observation ({!check_warp} probing). *)
val diagnose : t -> cycle:int -> warp_diag list

val pp_warp_diag : Format.formatter -> warp_diag -> unit

(** SRP conservation cross-check, for the fuzz oracle's per-cycle
    sampler: [Some msg] when the accounting is broken (in use + free
    <> total sections, or, for the full SRP engine, the
    status/bitmask/LUT structures disagree); [None] when it holds or the
    policy has no acquire pool. The [None] path allocates nothing. *)
val srp_invariant : t -> string option
