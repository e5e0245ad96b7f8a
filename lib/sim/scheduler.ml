module Bits = Gpu_isa.Bits
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

let positions t = (t.current, t.rr_pos, t.active_group)

let own_mask t ~n_slots =
  let m = ref 0 in
  let slot = ref t.id in
  while !slot < n_slots do
    m := !m lor (1 lsl !slot);
    slot := !slot + t.n_schedulers
  done;
  !m

(* Candidate ordering packed into one int — [(priority, age)] compared
   lexicographically — so a scan reads one precomputed key per candidate
   and allocates nothing. Ages beyond the field width saturate instead of
   spilling into the priority bits, so priority still dominates at the
   limit (ties then fall back to the first/lowest-slot candidate, exactly
   as equal keys always have). *)
let age_bits = 50
let age_mask = (1 lsl age_bits) - 1
let pack_key ~priority ~age = (priority lsl age_bits) lor min age age_mask

(* The caller has already applied the slot-local prefix — [eligible] holds
   exactly the owned slots that are [Ready] with their scoreboard bound
   passed — so a scan only runs the residual [can_issue] check (memory
   slots and register-policy state, owned by the SM), and only on the
   slots outside [plain], whose check the SM knows would pass. That check
   carries the acquire-stall side effects of a real issue attempt, so
   candidates are visited in increasing slot order, exactly as a scan over
   every slot would visit them. *)
let passes ~plain ~can_issue s = (plain lsr s) land 1 = 1 || can_issue s

let scan_best ~(soa : Soa.t) ~eligible ~plain ~can_issue =
  let key = soa.Soa.key in
  let best = ref (-1) in
  let best_key = ref max_int in
  let m = ref eligible in
  while !m <> 0 do
    let s = Bits.lowest !m in
    m := !m land (!m - 1);
    if passes ~plain ~can_issue s then begin
      let k = key.(s) in
      if k < !best_key then begin
        best_key := k;
        best := s
      end
    end
  done;
  !best

let pick_gto t ~soa ~eligible ~plain ~can_issue =
  let cur = t.current in
  if cur >= 0 && (eligible lsr cur) land 1 = 1 && passes ~plain ~can_issue cur
  then cur
  else begin
    let s = scan_best ~soa ~eligible ~plain ~can_issue in
    if s >= 0 then t.current <- s;
    s
  end

(* The lowest slot of [m] that passes. *)
let rec first ~plain ~can_issue m =
  if m = 0 then -1
  else
    let s = Bits.lowest m in
    if passes ~plain ~can_issue s then s
    else first ~plain ~can_issue (m land (m - 1))

(* Loose round-robin: the first candidate at or after [rr_pos], wrapping
   around once. *)
let pick_lrr t ~eligible ~plain ~can_issue =
  let above = eligible land (-1 lsl t.rr_pos) in
  let s = first ~plain ~can_issue above in
  let s = if s >= 0 then s else first ~plain ~can_issue (eligible lxor above) in
  if s >= 0 then t.rr_pos <- s + 1;
  s

(* Two-level: drain the active fetch group; when it has no runnable warp,
   rotate to the next group that does. Groups partition the slots into
   contiguous runs of [group_size]; a group with no eligible slot is
   skipped without a visit, since scanning it would call nothing. *)
let pick_two_level t ~group_size ~(soa : Soa.t) ~eligible ~plain ~can_issue =
  let n_slots = soa.Soa.n_slots in
  let n_groups = (n_slots + group_size - 1) / group_size in
  let group_bits g =
    let lo = g * group_size in
    let hi = min n_slots (lo + group_size) in
    (1 lsl hi) - (1 lsl lo)
  in
  (* Visit the groups holding a bit of [m] in ascending order. *)
  let rec rotate m =
    if m = 0 then -1
    else
      let g = Bits.lowest m / group_size in
      let bits = group_bits g in
      let s = scan_best ~soa ~eligible:(m land bits) ~plain ~can_issue in
      if s >= 0 then begin
        t.active_group <- g;
        s
      end
      else rotate (m land lnot bits)
  in
  let start = (t.active_group mod max n_groups 1) * group_size in
  let above = eligible land (-1 lsl start) in
  let s = rotate above in
  if s >= 0 then s else rotate (eligible lxor above)

let pick t ~soa ~eligible ~plain ~can_issue =
  if eligible = 0 then -1
  else
    match t.kind with
    | Gto -> pick_gto t ~soa ~eligible ~plain ~can_issue
    | Lrr -> pick_lrr t ~eligible ~plain ~can_issue
    | Two_level group_size ->
        pick_two_level t ~group_size ~soa ~eligible ~plain ~can_issue
