type stall_reason =
  | Stall_deps
  | Stall_mem_slot
  | Stall_acquire
  | Stall_regs
  | Stall_barrier
  | Stall_empty
  | Stall_mem_retry

(* The per-warp records key on one int: the CTA id in the high bits, then
   [warp_bits] bits of warp-in-CTA, then [lane_bits] bits of lane (0 in
   the warp-level records). Int order on a key is (CTA, warp, lane) order,
   so the sorted views need no tuple compares. *)
module Key_table = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b

  (* The table indexes buckets by the hash's low bits, which are the
     warp and lane ids; the multiply-xorshift folds the CTA in. *)
  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land max_int
end)

let lane_bits = 6
let warp_bits = 10
let max_lane = (1 lsl lane_bits) - 1
let max_warp = (1 lsl warp_bits) - 1
let max_cta = max_int lsr (warp_bits + lane_bits)

(* Declared before [t], so an unannotated [s.cycles] still means [t]'s. *)
type counters = {
  cycles : int;
  instructions : int;
  resident_warp_cycles : int;
  warp_capacity_cycles : int;
  acquire_execs : int;
  acquire_first_try : int;
  acquire_stall_cycles : int;
  release_execs : int;
  shared_oob : int;
  spill_stores : int;
  fill_loads : int;
  rf_reads : int;
  rf_writes : int;
  shared_reads : int;
  shared_writes : int;
  mem_requests : int;
  mem_latency_cycles : int;
  active_lane_cycles : int;
  predicated_lane_cycles : int;
  divergent_branches : int;
  lane_expansions : int;
  issue_candidates : int;
  stall_cycles : int array;
  ctas_retired : int;
  timed_out : bool;
}

type t = {
  mutable cycles : int;
  mutable instructions : int;
  mutable resident_warp_cycles : int;
  mutable warp_capacity_cycles : int;
  mutable acquire_execs : int;
  mutable acquire_first_try : int;
  mutable acquire_stall_cycles : int;
  mutable release_execs : int;
  mutable shared_oob : int;
  mutable spill_stores : int;
  mutable fill_loads : int;
  mutable rf_reads : int;
  mutable rf_writes : int;
  mutable shared_reads : int;
  mutable shared_writes : int;
  mutable mem_requests : int;
  mutable mem_latency_cycles : int;
  mutable active_lane_cycles : int;
  mutable predicated_lane_cycles : int;
  mutable divergent_branches : int;
  mutable lane_expansions : int;
  mutable issue_candidates : int;
  stall_cycles : int array;
  mutable ctas_retired : int;
  mutable timed_out : bool;
  mutable pc_trace : int list;
  stores : (Gpu_isa.Instr.space * int * int) list ref Key_table.t;
  lane_stores : (Gpu_isa.Instr.space * int * int) list ref Key_table.t;
  mutable warp_instructions : int array;
  mutable warp_exits : int;
}

let all_reasons =
  [ Stall_deps; Stall_mem_slot; Stall_acquire; Stall_regs; Stall_barrier;
    Stall_empty; Stall_mem_retry ]

(* Dense index for the counter array; bumping a stall counter is on the
   per-cycle path of every idle scheduler slot, so the lookup must not be
   an assoc-list walk (polymorphic compares dominated the profile). *)
let reason_index = function
  | Stall_deps -> 0
  | Stall_mem_slot -> 1
  | Stall_acquire -> 2
  | Stall_regs -> 3
  | Stall_barrier -> 4
  | Stall_empty -> 5
  | Stall_mem_retry -> 6

let n_reasons = 7

let create ?(warps = 0) () =
  {
    cycles = 0;
    instructions = 0;
    resident_warp_cycles = 0;
    warp_capacity_cycles = 0;
    acquire_execs = 0;
    acquire_first_try = 0;
    acquire_stall_cycles = 0;
    release_execs = 0;
    shared_oob = 0;
    spill_stores = 0;
    fill_loads = 0;
    rf_reads = 0;
    rf_writes = 0;
    shared_reads = 0;
    shared_writes = 0;
    mem_requests = 0;
    mem_latency_cycles = 0;
    active_lane_cycles = 0;
    predicated_lane_cycles = 0;
    divergent_branches = 0;
    lane_expansions = 0;
    issue_candidates = 0;
    stall_cycles = Array.make n_reasons 0;
    ctas_retired = 0;
    timed_out = false;
    pc_trace = [];
    stores = Key_table.create 16;
    lane_stores = Key_table.create 16;
    warp_instructions = Array.make (2 * max 0 warps) 0;
    warp_exits = 0;
  }

let bump_stall t reason =
  let i = reason_index reason in
  t.stall_cycles.(i) <- t.stall_cycles.(i) + 1

let bump_stall_by t reason n =
  let i = reason_index reason in
  t.stall_cycles.(i) <- t.stall_cycles.(i) + n

let stall_count t reason = t.stall_cycles.(reason_index reason)

let counters (t : t) : counters =
  {
    cycles = t.cycles;
    instructions = t.instructions;
    resident_warp_cycles = t.resident_warp_cycles;
    warp_capacity_cycles = t.warp_capacity_cycles;
    acquire_execs = t.acquire_execs;
    acquire_first_try = t.acquire_first_try;
    acquire_stall_cycles = t.acquire_stall_cycles;
    release_execs = t.release_execs;
    shared_oob = t.shared_oob;
    spill_stores = t.spill_stores;
    fill_loads = t.fill_loads;
    rf_reads = t.rf_reads;
    rf_writes = t.rf_writes;
    shared_reads = t.shared_reads;
    shared_writes = t.shared_writes;
    mem_requests = t.mem_requests;
    mem_latency_cycles = t.mem_latency_cycles;
    active_lane_cycles = t.active_lane_cycles;
    predicated_lane_cycles = t.predicated_lane_cycles;
    divergent_branches = t.divergent_branches;
    lane_expansions = t.lane_expansions;
    issue_candidates = t.issue_candidates;
    stall_cycles = Array.copy t.stall_cycles;
    ctas_retired = t.ctas_retired;
    timed_out = t.timed_out;
  }

let achieved_occupancy t =
  if t.warp_capacity_cycles = 0 then 0.
  else float_of_int t.resident_warp_cycles /. float_of_int t.warp_capacity_cycles

let ipc t =
  if t.cycles = 0 then 0. else float_of_int t.instructions /. float_of_int t.cycles

let acquire_success_ratio t =
  if t.acquire_execs = 0 then 1.
  else float_of_int t.acquire_first_try /. float_of_int t.acquire_execs

let trace t = Array.of_list (List.rev t.pc_trace)

let check_ids ~cta ~warp ~lane =
  if cta < 0 || cta > max_cta || warp < 0 || warp > max_warp || lane < 0
     || lane > max_lane
  then
    invalid_arg
      (Printf.sprintf "Stats: ids (cta %d, warp %d, lane %d) out of range" cta
         warp lane)

let warp_key ~cta ~warp =
  check_ids ~cta ~warp ~lane:0;
  ((cta lsl warp_bits) lor warp) lsl lane_bits

let lane_key ~cta ~warp ~lane =
  check_ids ~cta ~warp ~lane;
  (((cta lsl warp_bits) lor warp) lsl lane_bits) lor lane

let cta_of key = key lsr (warp_bits + lane_bits)
let warp_of key = (key lsr lane_bits) land max_warp
let lane_of key = key land max_lane

(* [find] rather than [find_opt]: a store is on the issue path, and the
   option would be allocated on every hit. *)
let push tbl key entry =
  match Key_table.find tbl key with
  | cell -> cell := entry :: !cell
  | exception Not_found -> Key_table.add tbl key (ref [ entry ])

(* The table's bindings as (key, value) pairs, sorted by key. *)
let sorted tbl f =
  Key_table.fold (fun key v acc -> (key, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let record_store t ~cta ~warp space addr value =
  push t.stores (warp_key ~cta ~warp) (space, addr, value)

let record_lane_store t ~cta ~warp ~lane space addr value =
  push t.lane_stores (lane_key ~cta ~warp ~lane) (space, addr, value)

let lane_store_traces t =
  sorted t.lane_stores (fun cell -> List.rev !cell)
  |> List.map (fun (key, trace) -> ((cta_of key, warp_of key, lane_of key), trace))

(* Appended at warp exit, key at [2i], count at [2i + 1]; the array
   doubles when full, so a run sized by [create ~warps] never grows it.
   A flat int array is two words a warp in memory and a few bytes a warp
   in the result store. *)
let record_warp_done t ~cta ~warp ~instructions =
  let key = warp_key ~cta ~warp in
  let i = 2 * t.warp_exits in
  if i = Array.length t.warp_instructions then begin
    let grown = Array.make (max 16 (2 * i)) 0 in
    Array.blit t.warp_instructions 0 grown 0 i;
    t.warp_instructions <- grown
  end;
  t.warp_instructions.(i) <- key;
  t.warp_instructions.(i + 1) <- instructions;
  t.warp_exits <- t.warp_exits + 1

(* Sorted by key; of two exits of one warp the later one wins. *)
let warp_instruction_counts t =
  let a = t.warp_instructions in
  let pairs = List.init t.warp_exits (fun i -> (a.(2 * i), a.((2 * i) + 1))) in
  let rec last_wins = function
    | (k, _) :: ((k', _) :: _ as rest) when k = k' -> last_wins rest
    | p :: rest -> p :: last_wins rest
    | [] -> []
  in
  List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) pairs
  |> last_wins
  |> List.map (fun (key, n) -> ((cta_of key, warp_of key), n))

let store_traces t =
  sorted t.stores (fun cell -> List.rev !cell)
  |> List.map (fun (key, trace) -> ((cta_of key, warp_of key), trace))

let reason_name = function
  | Stall_deps -> "deps"
  | Stall_mem_slot -> "mem-slot"
  | Stall_acquire -> "acquire"
  | Stall_regs -> "rfv-regs"
  | Stall_barrier -> "barrier"
  | Stall_empty -> "empty"
  | Stall_mem_retry -> "mem-retry"

type entry = { name : string; get : counters -> int; work : bool }

let entry ?(work = false) name get = { name; get; work }

(* Every field of [counters], in print order. *)
let table =
  [ entry "cycles" (fun c -> c.cycles);
    entry "instructions" (fun c -> c.instructions);
    entry "ctas_retired" (fun c -> c.ctas_retired);
    entry "timed_out" (fun c -> Bool.to_int c.timed_out);
    entry "resident_warp_cycles" (fun c -> c.resident_warp_cycles);
    entry "warp_capacity_cycles" (fun c -> c.warp_capacity_cycles);
    entry "acquire_execs" (fun c -> c.acquire_execs);
    entry "acquire_first_try" (fun c -> c.acquire_first_try);
    entry "acquire_stall_cycles" (fun c -> c.acquire_stall_cycles);
    entry "release_execs" (fun c -> c.release_execs);
    entry "shared_oob" (fun c -> c.shared_oob);
    entry "spill_stores" (fun c -> c.spill_stores);
    entry "fill_loads" (fun c -> c.fill_loads);
    entry "rf_reads" (fun c -> c.rf_reads);
    entry "rf_writes" (fun c -> c.rf_writes);
    entry "shared_reads" (fun c -> c.shared_reads);
    entry "shared_writes" (fun c -> c.shared_writes);
    entry "mem_requests" (fun c -> c.mem_requests);
    entry "mem_latency_cycles" (fun c -> c.mem_latency_cycles);
    entry "active_lane_cycles" (fun c -> c.active_lane_cycles);
    entry "predicated_lane_cycles" (fun c -> c.predicated_lane_cycles);
    entry "divergent_branches" (fun c -> c.divergent_branches) ]
  @ List.map
      (fun r ->
        let i = reason_index r in
        entry ("stall[" ^ reason_name r ^ "]") (fun c -> c.stall_cycles.(i)))
      all_reasons
  @ [ entry ~work:true "issue_candidates" (fun c -> c.issue_candidates);
      entry ~work:true "lane_expansions" (fun c -> c.lane_expansions) ]

let first_difference a b =
  List.find_map
    (fun e ->
      let x = e.get a and y = e.get b in
      if e.work || x = y then None else Some (e.name, x, y))
    table

let pp ppf t =
  let c = counters t in
  let entries ppf work =
    List.iter
      (fun e -> if e.work = work then Format.fprintf ppf "@ %s=%d" e.name (e.get c))
      table
  in
  let ratio n d = if d = 0 then 0. else float_of_int n /. float_of_int d in
  Format.fprintf ppf
    "@[<v>@[<hov 2>counters:%a@]@,@[<hov 2>work:%a@]@,\
     @[<hov 2>ratios: ipc=%.2f@ achieved_occupancy=%.1f%%@ \
     active_lane_occupancy=%.1f%%@ mean_mem_latency=%.1f@]@]"
    entries false entries true (ipc t)
    (100. *. achieved_occupancy t)
    (100. *. ratio c.active_lane_cycles (c.active_lane_cycles + c.predicated_lane_cycles))
    (ratio c.mem_latency_cycles c.mem_requests)
