(** Warp schedulers. Each SM has [n_schedulers] of them; scheduler [id]
    owns the warp slots with [slot mod n_schedulers = id].

    [Gto] is GPGPU-Sim's default greedy-then-oldest policy: keep issuing
    from the current warp until it stalls, then switch to the runnable warp
    with the smallest packed ordering key ([Warp.Soa.key] — policy
    priority before age, i.e. launch order). [Lrr] is loose round-robin.
    [Two_level n] drains a fetch group of [n] consecutive slots before
    rotating to the next group with runnable warps (Narasiman et al.,
    MICRO 2011).

    A scheduler never looks at a warp that cannot issue. The SM keeps the
    set of warps that are [Ready] and past their scoreboard bound as a
    slot bitmask (the issue stage's warp-state bitmasks, RegMutex §III-B1)
    and hands each scheduler its owned part; a pick walks only the set
    bits of that mask. A candidate in the SM's [plain] mask passes at
    once; every other one gets the SM's residual [can_issue] check
    (memory slots, register-policy state — the part with acquire-stall
    side effects), in increasing slot order. A pick allocates nothing. *)

type kind = Gto | Lrr | Two_level of int

type t

val create : kind -> id:int -> n_schedulers:int -> t

val owns : t -> slot:int -> bool

(** Test hook: [(current, rr_pos, active_group)] — the greedy warp of
    [Gto] ([-1] before the first pick), the round-robin position of [Lrr]
    and the active fetch group of [Two_level]. *)
val positions : t -> int * int * int

(** [own_mask t ~n_slots] is the bitmask of the slots below [n_slots]
    that [t] owns ([n_slots <= 62]). *)
val own_mask : t -> n_slots:int -> int

(** Width of the age field inside a packed ordering key; ages at or above
    [2^age_bits] saturate to {!age_mask} rather than corrupting the
    priority field. *)
val age_bits : int

val age_mask : int

(** [pack_key ~priority ~age] packs [(priority, age)] so that integer
    comparison of keys equals lexicographic comparison of the pairs (for
    ages within the field width; beyond it, priority still dominates).
    Smaller keys are scheduled first. *)
val pack_key : priority:int -> age:int -> int

(** [pick t ~soa ~eligible ~plain ~can_issue] returns the warp slot to
    issue from this cycle, or [-1] when no slot of [eligible] can issue.
    [eligible] is the bitmask of this scheduler's slots whose warp is
    [Ready] with its scoreboard bound passed ([ready_at <= cycle]); it must
    not hold a slot [t] does not own. [soa] supplies the ordering keys.
    [can_issue] is the SM's residual eligibility check beyond
    status/scoreboard; it may record acquire stalls. [plain] is a slot
    mask (it may hold slots outside [eligible]) whose slots the caller
    knows pass that check: they pass without a call. The pick is the one
    a scan calling [can_issue] on every eligible slot would make, and
    [can_issue] is called on that scan's sequence of slots — increasing
    slot order (from the round-robin position, wrapping, under [Lrr]) —
    with the [plain] slots left out. An empty [eligible] returns [-1] at
    once and leaves the scheduler untouched. *)
val pick :
  t ->
  soa:Warp.Soa.t ->
  eligible:int ->
  plain:int ->
  can_issue:(int -> bool) ->
  int
