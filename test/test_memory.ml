open Gpu_sim

let test_default_pattern () =
  let m = Memory.create () in
  let v = Memory.read_global m 1234 in
  Alcotest.(check int) "deterministic" v (Memory.read_global m 1234);
  Alcotest.(check int) "matches default_value" (Memory.default_value 1234) v;
  Alcotest.(check bool) "within 16 bits" true (v >= 0 && v < 65536)

let test_write_read () =
  let m = Memory.create () in
  Memory.write_global m 10 99;
  Alcotest.(check int) "read back" 99 (Memory.read_global m 10);
  Memory.write_global m 10 100;
  Alcotest.(check int) "overwrite" 100 (Memory.read_global m 10);
  Alcotest.(check int) "footprint" 1 (Memory.footprint m)

let test_address_masking () =
  let m = Memory.create () in
  Memory.write_global m 5 1;
  (* Addresses wrap at 30 bits: 5 + 2^30 aliases 5. *)
  Alcotest.(check int) "aliased high address" 1 (Memory.read_global m (5 + 0x40000000));
  Alcotest.(check int) "negative address masked"
    (Memory.read_global m ((-3) land 0x3fffffff))
    (Memory.read_global m (-3))

let test_written () =
  let m = Memory.create () in
  Memory.write_global m 30 3;
  Memory.write_global m 10 1;
  Memory.write_global m 20 2;
  Alcotest.(check (list (pair int int))) "sorted" [ (10, 1); (20, 2); (30, 3) ]
    (Memory.written m)

(* The open-addressed table against a [Hashtbl] model: random writes and
   reads over a few clustered and scattered address ranges (negative and
   past-30-bit addresses included, which alias by masking), enough of them
   to grow the table several times. *)
let prop_table_matches_model =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 0 400)
        (triple bool
           (oneof
              [ int_range 0 64; int_range 0x40000000 0x40000040;
                int_range (-64) 0; int_bound 0x3fffffff ])
           (int_bound 0xffff)))
  in
  Util.qtest ~count:200 "table matches a Hashtbl model" gen (fun ops ->
      let m = Memory.create () and model = Hashtbl.create 16 in
      List.for_all
        (fun (write, addr, v) ->
          let key = addr land 0x3fffffff in
          if write then begin
            Memory.write_global m addr v;
            Hashtbl.replace model key v;
            true
          end
          else
            Memory.read_global m addr
            = (match Hashtbl.find_opt model key with
              | Some v -> v
              | None -> Memory.default_value key))
        ops
      && Memory.footprint m = Hashtbl.length model
      && Memory.written m = List.sort compare (List.of_seq (Hashtbl.to_seq model)))

(* Unwrap a successful issue; the slot-availability cases below check the
   refusal ([-1]) explicitly. *)
let issue ms ~sm ~cycle =
  let c = Mem_system.issue_global ms ~sm ~cycle in
  if c < 0 then Alcotest.fail "unexpected refusal (no slot)";
  c

let test_mem_system_slots () =
  let arch = { Util.small_arch with Gpu_uarch.Arch_config.mem_slots = 2 } in
  let ms = Mem_system.create arch ~n_sms:1 in
  Alcotest.(check bool) "slot free" true (Mem_system.slot_free ms ~sm:0 ~cycle:0);
  let c1 = issue ms ~sm:0 ~cycle:0 in
  let _c2 = issue ms ~sm:0 ~cycle:0 in
  Alcotest.(check bool) "slots exhausted" false (Mem_system.slot_free ms ~sm:0 ~cycle:0);
  (* A slot frees once its request completes. *)
  Alcotest.(check bool) "free after completion" true
    (Mem_system.slot_free ms ~sm:0 ~cycle:c1)

let test_mem_system_no_slot () =
  let arch = { Util.small_arch with Gpu_uarch.Arch_config.mem_slots = 1 } in
  let ms = Mem_system.create arch ~n_sms:2 in
  let c1 = issue ms ~sm:0 ~cycle:0 in
  (* Structured back-pressure: a full SM answers [-1] instead of raising,
     and the refusal claims nothing. *)
  Alcotest.(check int) "refused on a full SM" (-1)
    (Mem_system.issue_global ms ~sm:0 ~cycle:0);
  Alcotest.(check int) "refusal claims no slot" c1
    (Mem_system.next_completion ms ~sm:0);
  (* Slots are per-SM: the other SM still issues. *)
  let _ = issue ms ~sm:1 ~cycle:0 in
  (* And the refused SM recovers once its request completes. *)
  let c3 = issue ms ~sm:0 ~cycle:c1 in
  Alcotest.(check bool) "recovers after completion" true (c3 > c1)

let test_mem_system_queueing () =
  let arch =
    { Util.small_arch with Gpu_uarch.Arch_config.mem_slots = 64; dram_interval = 10. }
  in
  let ms = Mem_system.create arch ~n_sms:1 in
  let c1 = issue ms ~sm:0 ~cycle:0 in
  let c2 = issue ms ~sm:0 ~cycle:0 in
  let c3 = issue ms ~sm:0 ~cycle:0 in
  Alcotest.(check int) "uncontended latency" arch.Gpu_uarch.Arch_config.lat_global c1;
  Alcotest.(check int) "queued by one interval" (c1 + 10) c2;
  Alcotest.(check int) "queued by two intervals" (c1 + 20) c3

(* The SM counts each global access it gets a slot for, with its
   issue-to-completion latency: one load and one store per warp. *)
let test_mem_requests_counted () =
  let prog =
    Gpu_isa.Builder.(
      assemble ~name:"ldst"
        [ mov 0 tid; load Gpu_isa.Instr.Global 1 (r 0);
          store ~ofs:0x10000000 Gpu_isa.Instr.Global (r 0) (r 1); exit_ ])
  in
  let stats = Util.run_with ~grid:2 ~threads:64 (Util.static_policy prog) prog in
  let warps = 2 * 64 / Util.small_arch.Gpu_uarch.Arch_config.warp_size in
  Alcotest.(check int) "two requests per warp" (2 * warps) stats.Stats.mem_requests;
  Alcotest.(check bool) "each at least the global latency" true
    (stats.Stats.mem_latency_cycles
    >= stats.Stats.mem_requests * Util.small_arch.Gpu_uarch.Arch_config.lat_global)

let test_mem_system_idle_recovers () =
  let arch = { Util.small_arch with Gpu_uarch.Arch_config.dram_interval = 10. } in
  let ms = Mem_system.create arch ~n_sms:1 in
  ignore (issue ms ~sm:0 ~cycle:0);
  (* After a long idle period the channel is free again: no queueing. *)
  let c = issue ms ~sm:0 ~cycle:1000 in
  Alcotest.(check int) "no residual queue" (1000 + arch.Gpu_uarch.Arch_config.lat_global) c

(* The reference the FIFO ring is checked against: every SM's slots as a
   plain array, the earliest completion found by a scan, and a request
   claiming the slot with that earliest completion when it has passed. *)
type model = {
  m_lat : int;
  m_interval : float;
  m_slots : int array array;
  mutable m_dram_free : float;
}

let model_earliest m ~sm = Array.fold_left min max_int m.m_slots.(sm)

let model_issue m ~sm ~cycle =
  let slots = m.m_slots.(sm) in
  let free = ref 0 in
  Array.iteri (fun i b -> if b < slots.(!free) then free := i) slots;
  if slots.(!free) > cycle then -1
  else begin
    let start = Float.max (float_of_int cycle) m.m_dram_free in
    let completion = int_of_float (Float.ceil start) + m.m_lat in
    m.m_dram_free <- start +. m.m_interval;
    slots.(!free) <- completion;
    completion
  end

let model_busy m ~sm ~cycle =
  Array.fold_left (fun acc b -> if b > cycle then acc + 1 else acc) 0 m.m_slots.(sm)

(* Random multi-SM request streams on a clock that never runs backwards,
   with DRAM intervals of 0, whole and fractional cycles: after every
   request, every SM's [slot_free], [next_completion] and [busy_slots]
   agree with the array scan, and so does the request's answer. *)
let prop_fifo_matches_scan =
  let gen =
    QCheck2.Gen.(
      let* n_sms = int_range 1 3 in
      let* mem_slots = int_range 1 5 in
      let* lat = int_range 1 40 in
      let* interval = oneofl [ 0.; 0.25; 0.5; 1.; 1.5; 2.75; 7.; 13.3 ] in
      let* reqs =
        list_size (int_range 1 80) (pair (int_bound 6) (int_bound (n_sms - 1)))
      in
      return (n_sms, mem_slots, lat, interval, reqs))
  in
  let print (n_sms, mem_slots, lat, interval, reqs) =
    Printf.sprintf "n_sms=%d slots=%d lat=%d interval=%g reqs=[%s]" n_sms mem_slots
      lat interval
      (String.concat "; "
         (List.map (fun (dt, sm) -> Printf.sprintf "+%d@%d" dt sm) reqs))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:500 ~print ~name:"mem system: FIFO slots match a scan"
       gen (fun (n_sms, mem_slots, lat, interval, reqs) ->
         let arch =
           { Util.small_arch with
             Gpu_uarch.Arch_config.mem_slots;
             lat_global = lat;
             dram_interval = interval }
         in
         let ms = Mem_system.create arch ~n_sms in
         let m =
           { m_lat = lat;
             m_interval = interval;
             m_slots = Array.init n_sms (fun _ -> Array.make mem_slots 0);
             m_dram_free = 0. }
         in
         let cycle = ref 0 in
         let agree () =
           List.for_all
             (fun sm ->
               let cycle = !cycle in
               Mem_system.slot_free ms ~sm ~cycle = (model_earliest m ~sm <= cycle)
               && Mem_system.next_completion ms ~sm = model_earliest m ~sm
               && Mem_system.busy_slots ms ~sm ~cycle = model_busy m ~sm ~cycle)
             (List.init n_sms Fun.id)
         in
         agree ()
         && List.for_all
              (fun (dt, sm) ->
                cycle := !cycle + dt;
                let want = model_issue m ~sm ~cycle:!cycle in
                Mem_system.issue_global ms ~sm ~cycle:!cycle = want && agree ())
              reqs))

let suite =
  [ Alcotest.test_case "default pattern" `Quick test_default_pattern;
    Alcotest.test_case "write / read" `Quick test_write_read;
    Alcotest.test_case "address masking" `Quick test_address_masking;
    Alcotest.test_case "written listing" `Quick test_written;
    Alcotest.test_case "mem system: slots" `Quick test_mem_system_slots;
    Alcotest.test_case "mem system: no-slot back-pressure" `Quick test_mem_system_no_slot;
    Alcotest.test_case "mem system: queueing" `Quick test_mem_system_queueing;
    Alcotest.test_case "mem system: requests counted in Stats" `Quick
      test_mem_requests_counted;
    Alcotest.test_case "mem system: idle recovery" `Quick
      test_mem_system_idle_recovers;
    prop_fifo_matches_scan;
    prop_table_matches_model ]
