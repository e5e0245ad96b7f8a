(* Timeline: watch the SRP at work. Runs one workload under RegMutex with a
   telemetry trace attached and prints the first acquire/release/barrier
   events plus a per-section occupancy summary, all read off the trace's
   records.

   Run with: dune exec examples/timeline.exe [workload] *)

module Trace = Telemetry.Trace
module Technique = Regmutex.Technique

let pp_record ppf (r : Trace.record) =
  let arg = Option.value r.arg ~default:(-1) in
  Format.fprintf ppf "%8d  sm%d: " r.ts r.pid;
  match r.name with
  | "cta-launch" -> Format.fprintf ppf "launch cta %d" arg
  | "cta-retire" -> Format.fprintf ppf "retire cta %d" arg
  | "srp-hold" ->
      Format.fprintf ppf "slot %d holds section %d for %d cycles" r.tid arg r.dur
  | "acquire-stall" -> Format.fprintf ppf "slot %d stalls on acquire" r.tid
  | "barrier-arrive" -> Format.fprintf ppf "slot %d at barrier" r.tid
  | "barrier-release" -> Format.fprintf ppf "cta %d barrier released" arg
  | name -> Format.pp_print_string ppf name

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "SAD" in
  let spec = Workloads.Spec.with_grid (Workloads.Registry.find name) 8 in
  let arch = { Gpu_uarch.Arch_config.gtx480 with n_sms = 1 } in
  let prepared = Technique.prepare arch Technique.Regmutex spec.Workloads.Spec.kernel in
  let trace = Trace.create () in
  let config =
    { (Gpu_sim.Gpu.default_config arch prepared.Technique.policy) with
      Gpu_sim.Gpu.telemetry = Some trace }
  in
  let stats = Gpu_sim.Gpu.run config prepared.Technique.kernel in
  Format.printf "%s under RegMutex: %d cycles, %d records@."
    spec.Workloads.Spec.name stats.Gpu_sim.Stats.cycles (Trace.length trace);
  (* The instants and the SRP holds; a hold span is pushed at its release,
     so order the timeline by start. *)
  let events = ref [] in
  Trace.iter trace (fun r ->
      if r.Trace.kind = Trace.Instant || r.Trace.name = "srp-hold" then
        events := r :: !events);
  let events =
    List.stable_sort (fun a b -> compare a.Trace.ts b.Trace.ts) (List.rev !events)
  in
  Format.printf "@.First 24 events:@.";
  List.iteri (fun i r -> if i < 24 then Format.printf "  %a@." pp_record r) events;

  (* How long does each section stay acquired, on average? A hold span's
     duration is its grant-to-release time. *)
  let holds = Hashtbl.create 16 in
  List.iter
    (fun (r : Trace.record) ->
      match r.name, r.arg with
      | "srp-hold", Some section ->
          let total, count =
            Option.value ~default:(0, 0) (Hashtbl.find_opt holds section)
          in
          Hashtbl.replace holds section (total + r.dur, count + 1)
      | _ -> ())
    events;
  Format.printf "@.SRP section usage (mean hold time):@.";
  Hashtbl.fold (fun s v acc -> (s, v) :: acc) holds []
  |> List.sort compare
  |> List.iter (fun (section, (total, count)) ->
         Format.printf "  section %2d: %4d acquires, %5.1f cycles mean hold@."
           section count
           (float_of_int total /. float_of_int (max 1 count)))
