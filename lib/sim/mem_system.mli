(** Global-memory timing model.

    Two levels of contention shape the latency of a global access:

    - per-SM in-flight slots (an MSHR-like cap) bound how many accesses an
      SM can have outstanding — a structural stall when exhausted;
    - a GPU-wide service channel completes at most one request every
      [dram_interval] cycles — requests queue behind each other, so latency
      grows once the aggregate demand saturates DRAM.

    This reproduces the first-order behaviour RegMutex leans on: extra
    resident warps hide latency until bandwidth saturates. *)

type t

val create : Gpu_uarch.Arch_config.t -> n_sms:int -> t

(** [slot_free t ~sm ~cycle] — can SM [sm] start a global access now?
    O(1): an SM's slots drain in issue order, so the oldest one answers. *)
val slot_free : t -> sm:int -> cycle:int -> bool

(** [next_completion t ~sm] — the earliest busy-until cycle over SM [sm]'s
    slots. When no slot is free this is the cycle the first one frees up;
    the fast-forward wakeup layer jumps the clock to it. *)
val next_completion : t -> sm:int -> int

(** [issue_global t ~sm ~cycle] claims a slot and returns its completion
    cycle, or [-1] when every slot is busy — structured back-pressure the
    issue stage turns into a re-stall of the warp (rather than a crash),
    even though schedulers normally consult {!slot_free} first. The SM
    counts the requests it gets a slot for ([Stats.mem_requests]). [cycle]
    must never decrease from one call to the next (the simulator's clock
    does not); completions then come out in non-decreasing order, which is
    what lets each SM's slots work as a FIFO. Allocates nothing. *)
val issue_global : t -> sm:int -> cycle:int -> int

(** [busy_slots t ~sm ~cycle] — how many of SM [sm]'s slots are in flight
    at [cycle]. O(slots) scan; no simulator path calls it. It states the
    count the telemetry probe tracks in O(1), and the memory suite checks
    the FIFO against it. *)
val busy_slots : t -> sm:int -> cycle:int -> int
