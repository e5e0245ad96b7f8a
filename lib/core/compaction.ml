module Program = Gpu_isa.Program
module Instr = Gpu_isa.Instr
module Regset = Gpu_isa.Regset
module Liveness = Gpu_analysis.Liveness
module Cfg = Gpu_analysis.Cfg
module Facts = Gpu_analysis.Facts

let pressure_ranking prog (liveness : Liveness.t) =
  let n_regs = prog.Program.n_regs in
  let n = Program.length prog in
  let duration = Array.make n_regs 0 in
  (* live.(i) includes referenced registers so a dying value's last use and
     a fresh definition both count as residency at instruction i. *)
  let live =
    Array.init n (fun i ->
        Regset.union
          (Instr.regs (Program.get prog i))
          (Regset.union liveness.Liveness.live_in.(i) liveness.Liveness.live_out.(i)))
  in
  Array.iter (fun set -> Regset.iter (fun r -> duration.(r) <- duration.(r) + 1) set) live;
  let pressure = Liveness.profile liveness in
  (* Low registers keep relative order by duration (long-lived first);
     high registers likewise above the boundary. *)
  let ranked is_high select =
    let regs = ref [] in
    for r = n_regs - 1 downto 0 do
      if is_high.(r) = select then regs := r :: !regs
    done;
    List.sort
      (fun a b ->
        match compare duration.(b) duration.(a) with 0 -> compare a b | c -> c)
      !regs
  in
  fun ~bs ->
    if n_regs <= bs then Array.init n_regs (fun r -> r)
    else begin
      (* Greedy selection of the high set: instructions whose pressure
         exceeds the base set are in the acquire state no matter what; each
         round exiles the register that drags the fewest additional
         low-pressure instructions into it. *)
      let n_high = n_regs - bs in
      let covered = Array.init n (fun i -> pressure.(i) > bs) in
      (* [cost.(r)]: the uncovered instructions [r] is resident at, i.e.
         the low-pressure instructions exiling [r] would drag into the
         acquire state. Kept current as instructions are covered, so a
         round is one scan of the registers instead of one of the program
         per register. *)
      let cost = Array.make n_regs 0 in
      Array.iteri
        (fun i set ->
          if not covered.(i) then Regset.iter (fun r -> cost.(r) <- cost.(r) + 1) set)
        live;
      let is_high = Array.make n_regs false in
      for _ = 1 to n_high do
        (* The lowest (cost, duration), ties to the highest register. *)
        let best = ref (-1) in
        for r = 0 to n_regs - 1 do
          if not is_high.(r) then begin
            let b = !best in
            if
              b < 0
              || cost.(r) < cost.(b)
              || (cost.(r) = cost.(b) && duration.(r) <= duration.(b))
            then best := r
          end
        done;
        let r = !best in
        is_high.(r) <- true;
        for i = 0 to n - 1 do
          if (not covered.(i)) && Regset.mem r live.(i) then begin
            covered.(i) <- true;
            Regset.iter (fun r' -> cost.(r') <- cost.(r') - 1) live.(i)
          end
        done
      done;
      let order = Array.of_list (ranked is_high false @ ranked is_high true) in
      let perm = Array.make n_regs 0 in
      Array.iteri (fun rank old -> perm.(old) <- rank) order;
      perm
    end

let permute prog perm =
  let n_regs = prog.Program.n_regs in
  if Array.length perm <> n_regs then
    invalid_arg "Compaction.permute: permutation length mismatch";
  let seen = Array.make n_regs false in
  Array.iter
    (fun v ->
      if v < 0 || v >= n_regs || seen.(v) then
        invalid_arg "Compaction.permute: not a permutation";
      seen.(v) <- true)
    perm;
  Program.map_instrs (fun _ instr -> Instr.map_regs (fun r -> perm.(r)) instr) prog

(* One mov-compaction attempt: find a high register [h] whose live range is
   confined to [f, n) with pressure at [f] within the base set, a free low
   slot [x] untouched from [f] on, and rewrite. Returns the new program or
   [None] when no safe opportunity exists. *)
let try_one ~bs facts =
  let prog = Facts.program facts in
  let liveness = Facts.liveness facts in
  let n = Program.length prog in
  let live_in = liveness.Liveness.live_in and live_out = liveness.Liveness.live_out in
  let { Cfg.isuccs = succs; ipreds = preds; _ } = Facts.cfg facts in
  (* [touched.(f)]: the registers referenced or live anywhere at/after f. *)
  let touched = Array.make (n + 1) Regset.empty in
  for i = n - 1 downto 0 do
    touched.(i) <-
      Regset.union
        (Instr.regs (Program.get prog i))
        (Regset.union live_in.(i) (Regset.union live_out.(i) touched.(i + 1)))
  done;
  let range_confined f h =
    (* live range of h from f on never crosses back before f, and has no
       side entry after f *)
    let ok = ref true in
    (* The inserted Mov must execute exactly once per entry of the range:
       if f is a branch target of a later instruction (a loop header), the
       back edge would re-execute the Mov and clobber the renamed value. *)
    List.iter (fun p -> if p >= f then ok := false) preds.(f);
    for i = 0 to n - 1 do
      if i < f && (Regset.mem h live_in.(i) || Regset.mem h live_out.(i)) then begin
        (* h may be live before f only on the straight flow into f *)
        List.iter
          (fun s ->
            if s > f && Regset.mem h live_in.(s) then ok := false)
          succs.(i)
      end;
      if i > f && Regset.mem h live_in.(i) then
        List.iter (fun p -> if p < f then ok := false) preds.(i);
      if i >= f && Regset.mem h live_out.(i) then
        List.iter
          (fun s -> if s < f && Regset.mem h live_in.(s) then ok := false)
          succs.(i)
    done;
    !ok
  in
  let find_slot f =
    let rec go x =
      if x >= bs then None
      else if Regset.mem x touched.(f) then go (x + 1)
      else Some x
    in
    go 0
  in
  let result = ref None in
  let f = ref 0 in
  while !result = None && !f < n do
    let i = !f in
    if Liveness.pressure_at liveness i <= bs then begin
      (* Only registers that stay live past [i] are worth moving; this also
         guarantees progress (the inserted Mov is the new last use of [h],
         so the same opportunity cannot retrigger). The free slot does not
         depend on [h], so without one no range is worth testing. *)
      let high = Regset.above bs (Regset.inter live_in.(i) live_out.(i)) in
      let candidate =
        match find_slot i with
        | None -> None
        | Some x ->
            Regset.fold
              (fun h acc ->
                match acc with
                | Some _ -> acc
                | None -> if range_confined i h then Some (h, x) else None)
              high None
      in
      match candidate with
      | Some (h, x) ->
          let rename r = if r = h then x else r in
          let renamed =
            Program.map_instrs
              (fun j instr -> if j >= i then Instr.map_regs rename instr else instr)
              prog
          in
          let with_mov =
            Program.insert_before renamed [ (i, [ Instr.Mov (x, Instr.Reg h) ]) ]
          in
          result := Some with_mov
      | None -> incr f
    end
    else incr f
  done;
  !result

let mov_compact ~bs facts =
  let rec go facts moves budget =
    if budget = 0 then (facts, moves)
    else
      match try_one ~bs facts with
      | Some prog' -> go (Facts.derive facts prog') (moves + 1) (budget - 1)
      | None -> (facts, moves)
  in
  go facts 0 64
