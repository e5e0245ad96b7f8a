(* Every completion is [ceil (max cycle dram_free) + lat_global], and both
   terms only grow (the clock never runs backwards and the channel horizon
   only advances), so completions are issued in non-decreasing order. An
   SM's slots therefore fill and drain in FIFO order: its slots form a ring
   whose head is at once the oldest request, the earliest completion and
   the slot the next request claims — no scan to find the minimum. *)
type t = {
  lat_global : int;
  dram_interval : float;
  n_slots : int;
  busy : int array;         (* SM [sm]'s ring: busy-until cycle per slot, at
                               [sm * n_slots ..] *)
  head : int array;         (* per SM: ring index of its earliest completion *)
  dram_free : float array;  (* one cell: earliest cycle the service channel is
                               free (a float array keeps it unboxed) *)
}

let create (cfg : Gpu_uarch.Arch_config.t) ~n_sms =
  {
    lat_global = cfg.lat_global;
    dram_interval = cfg.dram_interval;
    n_slots = cfg.mem_slots;
    busy = Array.make (n_sms * cfg.mem_slots) 0;
    head = Array.make n_sms 0;
    dram_free = [| 0. |];
  }

let next_completion t ~sm = t.busy.((sm * t.n_slots) + t.head.(sm))

let slot_free t ~sm ~cycle = next_completion t ~sm <= cycle

let issue_global t ~sm ~cycle =
  let i = (sm * t.n_slots) + t.head.(sm) in
  if t.busy.(i) > cycle then -1
  else begin
    let now = float_of_int cycle and free = t.dram_free.(0) in
    let start = if now > free then now else free in
    let completion = int_of_float (Float.ceil start) + t.lat_global in
    t.dram_free.(0) <- start +. t.dram_interval;
    t.busy.(i) <- completion;
    t.head.(sm) <- (if t.head.(sm) + 1 = t.n_slots then 0 else t.head.(sm) + 1);
    completion
  end

let busy_slots t ~sm ~cycle =
  let n = ref 0 in
  for i = sm * t.n_slots to ((sm + 1) * t.n_slots) - 1 do
    if t.busy.(i) > cycle then incr n
  done;
  !n
