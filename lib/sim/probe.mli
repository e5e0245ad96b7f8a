(** Per-SM telemetry probe: translates simulator events into trace spans,
    instants and counter samples on a {!Telemetry.Trace.t}.

    One probe per SM, all sharing the run's trace. The SM holds it as an
    option — [None] is the disabled path and costs one pattern match per
    potential hook. The trace is the simulator's only event stream: CTA
    launch/retire, warp lifetimes, SRP holds, acquire stalls and barrier
    traffic all arrive here.

    Every record the probe pushes is anchored at an {e issue} (or a CTA
    launch/retire, which only happen at visited cycles), and idle episodes
    accumulate in probe-local state until an issue or the end of the run
    closes them — so the record stream is bit-identical under fast-forward
    and brute-force stepping. The only asymmetric records are the
    fast-forward jump spans the GPU driver itself pushes on its own
    process track. *)

type t

(** [create trace ~sm_id ~n_slots ~n_cta_slots ~n_mem_slots] registers
    the SM's track names (process [sm_id]; one thread per warp slot, a
    "stalls" thread at [tid = n_slots], CTA-slot threads above it).
    [n_mem_slots] bounds the outstanding memory requests tracked for the
    busy-slots counter. *)
val create :
  Telemetry.Trace.t ->
  sm_id:int ->
  n_slots:int ->
  n_cta_slots:int ->
  n_mem_slots:int ->
  t

val cta_launch : t -> cycle:int -> cta_slot:int -> global_cta:int -> unit

(** Closes the CTA-lifetime span opened by {!cta_launch}. *)
val cta_retire : t -> cycle:int -> cta_slot:int -> unit

val warp_start : t -> cycle:int -> slot:int -> global_cta:int -> unit

(** Closes the warp-lifetime span. No-op if the slot has no open span
    (idempotent). *)
val warp_close : t -> cycle:int -> slot:int -> unit

(** A failed acquire attempt opened a stall episode for the warp in
    [slot]: an ["acquire-stall"] instant on its track, once per episode
    (the SM only reports the transition into the stall). *)
val acquire_stall : t -> cycle:int -> slot:int -> global_cta:int -> unit

(** The warp in [slot] arrived at a barrier: a ["barrier-arrive"]
    instant on its track. *)
val barrier_arrive : t -> cycle:int -> slot:int -> global_cta:int -> unit

(** Every running warp of the CTA in [cta_slot] arrived: a
    ["barrier-release"] instant on the CTA-slot track. *)
val barrier_release : t -> cycle:int -> cta_slot:int -> global_cta:int -> unit

(** An SRP section (or paired/OWF extended set) granted to the warp. *)
val hold_begin : t -> cycle:int -> slot:int -> section:int -> unit

(** Closes the hold span; no-op when none is open, so release paths and
    warp exit can both call it. *)
val hold_end : t -> cycle:int -> slot:int -> unit

(** Sample the SM's SRP-occupancy counter track (call after every grant,
    release and exit-reclaim). *)
val srp_sample : t -> cycle:int -> in_use:int -> unit

(** A global-memory request issued at [cycle] completing at [completion]:
    samples the SM's busy-memory-slots counter track. Tracks outstanding
    requests internally in O(1) — per-SM completion cycles are monotone,
    and a memory slot is only reused once its previous request expired, so
    the FIFO length equals {!Mem_system.busy_slots}. *)
val mem_issue : t -> cycle:int -> completion:int -> unit

(** The SM issued at least one instruction this cycle: close any open idle
    episode. Idempotent within a cycle. *)
val flush_idle : t -> unit

(** The SM was fully idle this cycle, blocked on [reason]. Extends the
    open episode when the reason persists, else closes it and opens a new
    one. Call at most once per cycle. *)
val note_idle : t -> cycle:int -> reason:Stats.stall_reason -> unit

(** Bulk form of {!note_idle} for a fast-forwarded span of [span] cycles
    starting at [from], all sharing [reason]. *)
val note_idle_span : t -> from:int -> span:int -> reason:Stats.stall_reason -> unit

(** Close every open span (idle episode, holds, warps, CTAs) at the run's
    final cycle so the export carries no dangling state. *)
val finalize : t -> cycle:int -> unit
