module Soa = Warp.Soa

type kind = Gto | Lrr | Two_level of int

type t = {
  kind : kind;
  id : int;
  n_schedulers : int;
  mutable current : int;
  mutable rr_pos : int;
  mutable active_group : int;
}

let create kind ~id ~n_schedulers =
  (match kind with
  | Two_level g when g <= 0 -> invalid_arg "Scheduler.create: empty fetch group"
  | Two_level _ | Gto | Lrr -> ());
  { kind; id; n_schedulers; current = -1; rr_pos = 0; active_group = 0 }

let owns t ~slot = slot mod t.n_schedulers = t.id

(* Candidate ordering packed into one int — [(priority, age)] compared
   lexicographically — so the per-cycle scan over every warp slot reads one
   precomputed key per candidate and allocates nothing. Ages beyond the
   field width saturate instead of spilling into the priority bits, so
   priority still dominates at the limit (ties then fall back to the
   first/lowest-slot candidate, exactly as equal keys always have). *)
let age_bits = 50
let age_mask = (1 lsl age_bits) - 1
let pack_key ~priority ~age = (priority lsl age_bits) lor min age age_mask

(* A candidate must pass the slot-local prefix — a resident warp in
   [Ready] status whose scoreboard bound has passed — before the residual
   [can_issue] check (memory slots and register-policy state, owned by the
   SM). The residual check carries the acquire-stall side effects of a
   real issue attempt, so candidates are visited in exactly the order the
   record-based scan did: increasing slot. *)
(* [runnable] is inlined by hand below (status = st_ready and the
   scoreboard bound passed): the scan bodies are the hottest loops in the
   simulator, and dune's default dev profile compiles with [-opaque], so
   no call across a module boundary is ever inlined. *)

let scan_best t ~(soa : Soa.t) ~cycle ~can_issue =
  let status = soa.Soa.status in
  let ready_at = soa.Soa.ready_at in
  let key = soa.Soa.key in
  let best = ref (-1) in
  let best_key = ref max_int in
  let slot = ref t.id in
  while !slot < soa.Soa.n_slots do
    let s = !slot in
    if status.(s) = Soa.st_ready && ready_at.(s) <= cycle && can_issue s
    then begin
      let k = key.(s) in
      if k < !best_key then begin
        best_key := k;
        best := s
      end
    end;
    slot := s + t.n_schedulers
  done;
  !best

let pick_gto t ~(soa : Soa.t) ~cycle ~can_issue =
  let cur = t.current in
  if
    cur >= 0
    && cur < soa.Soa.n_slots
    && soa.Soa.status.(cur) = Soa.st_ready
    && soa.Soa.ready_at.(cur) <= cycle
    && can_issue cur
  then cur
  else begin
    let s = scan_best t ~soa ~cycle ~can_issue in
    if s >= 0 then t.current <- s;
    s
  end

let pick_lrr t ~(soa : Soa.t) ~cycle ~can_issue =
  let n_slots = soa.Soa.n_slots in
  let status = soa.Soa.status in
  let ready_at = soa.Soa.ready_at in
  let rec go tried slot =
    if tried >= n_slots then -1
    else
      let slot = if slot >= n_slots then 0 else slot in
      if
        owns t ~slot
        && status.(slot) = Soa.st_ready
        && ready_at.(slot) <= cycle
        && can_issue slot
      then begin
        t.rr_pos <- slot + 1;
        slot
      end
      else go (tried + 1) (slot + 1)
  in
  go 0 t.rr_pos

(* Two-level: drain the active fetch group; when it has no runnable warp,
   rotate to the next group that does. Groups partition a scheduler's own
   slots into contiguous runs of [group_size]. *)
let pick_two_level t ~group_size ~(soa : Soa.t) ~cycle ~can_issue =
  let n_slots = soa.Soa.n_slots in
  let status = soa.Soa.status in
  let ready_at = soa.Soa.ready_at in
  let key = soa.Soa.key in
  let n_groups = (n_slots + group_size - 1) / group_size in
  let scan_group g =
    let best = ref (-1) in
    let best_key = ref max_int in
    let hi = (g + 1) * group_size in
    let hi = if hi > n_slots then n_slots else hi in
    for slot = g * group_size to hi - 1 do
      if
        owns t ~slot
        && status.(slot) = Soa.st_ready
        && ready_at.(slot) <= cycle
        && can_issue slot
      then begin
        let k = key.(slot) in
        if k < !best_key then begin
          best_key := k;
          best := slot
        end
      end
    done;
    !best
  in
  let rec rotate tried g =
    if tried >= n_groups then -1
    else
      let s = scan_group g in
      if s >= 0 then begin
        t.active_group <- g;
        s
      end
      else rotate (tried + 1) ((g + 1) mod n_groups)
  in
  rotate 0 (t.active_group mod max n_groups 1)

let pick t ~soa ~cycle ~can_issue =
  match t.kind with
  | Gto -> pick_gto t ~soa ~cycle ~can_issue
  | Lrr -> pick_lrr t ~soa ~cycle ~can_issue
  | Two_level group_size -> pick_two_level t ~group_size ~soa ~cycle ~can_issue
