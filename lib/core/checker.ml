module Program = Gpu_isa.Program
module Instr = Gpu_isa.Instr
module Regset = Gpu_isa.Regset
module Liveness = Gpu_analysis.Liveness
module Cfg = Gpu_analysis.Cfg
module Facts = Gpu_analysis.Facts

type violation = {
  pc : int;
  message : string;
}

(* Acquire-state lattice: Bot < Held, Free < Top. *)
type state = Bot | Held | Free | Top

let meet a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Held, Held -> Held
  | Free, Free -> Free
  | Held, Free | Free, Held | Top, _ | _, Top -> Top

let transfer instr state =
  match instr with
  | Instr.Acquire -> Held
  | Instr.Release -> Free
  | _ -> state

let acquire_states facts =
  let prog = Facts.program facts in
  let n = Program.length prog in
  let preds = (Facts.cfg facts).Cfg.ipreds in
  let state_in = Array.make n Bot in
  let state_out = Array.make n Bot in
  state_in.(0) <- Free;
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let inn =
        if i = 0 then
          List.fold_left (fun acc p -> meet acc state_out.(p)) Free preds.(i)
        else
          List.fold_left (fun acc p -> meet acc state_out.(p)) Bot preds.(i)
      in
      let out = transfer (Program.get prog i) inn in
      if inn <> state_in.(i) || out <> state_out.(i) then begin
        state_in.(i) <- inn;
        state_out.(i) <- out;
        changed := true
      end
    done
  done;
  (state_in, state_out)

let acquire_spans_barrier facts =
  let prog = Facts.program facts in
  let state_in, _ = acquire_states facts in
  let spans = ref false in
  for i = 0 to Program.length prog - 1 do
    match (Program.get prog i, state_in.(i)) with
    | Instr.Bar, (Held | Top) -> spans := true
    | _ -> ()
  done;
  !spans

let check_facts ~bs ~es facts =
  let prog = Facts.program facts in
  let n = Program.length prog in
  let state_in, state_out = acquire_states facts in
  let liveness = Facts.liveness facts in
  let violations = ref [] in
  let report pc fmt = Format.kasprintf (fun message -> violations := { pc; message } :: !violations) fmt in
  for i = 0 to n - 1 do
    let instr = Program.get prog i in
    let refs = Instr.regs instr in
    let top_ref = if Regset.is_empty refs then -1 else Regset.max_elt refs in
    if top_ref >= bs + es then
      report i "references r%d beyond |Bs|+|Es| = %d" top_ref (bs + es);
    if top_ref >= bs then begin
      match state_in.(i) with
      | Held -> ()
      | Free -> report i "references extended register r%d while the set is free" top_ref
      | Top -> report i "references extended register r%d with path-dependent acquire state" top_ref
      | Bot -> ()  (* unreachable code *)
    end;
    (* When the set may be free after this instruction, no extended
       register may carry a live value. *)
    (match state_out.(i) with
    | Free | Top ->
        let high = Regset.above bs liveness.Liveness.live_out.(i) in
        if not (Regset.is_empty high) then
          report i "extended registers %a live while the set may be free" Regset.pp high
    | Held | Bot -> ())
  done;
  List.rev !violations

let check ~bs ~es prog = check_facts ~bs ~es (Facts.of_program prog)

let pp_violation ppf v = Format.fprintf ppf "pc %d: %s" v.pc v.message

(* --- dynamic store-trace comparison ---------------------------------- *)

type store_trace = ((int * int) * (Instr.space * int * int) list) list

let space_name = Instr.space_name

let pp_store (sp, addr, v) =
  Printf.sprintf "st.%s [0x%x] = %d" (space_name sp) addr v

(* Both sides are sorted by owner key; walk them in lockstep and describe
   the first divergence. [key] names an owner: a warp, or one lane of one
   (strictly finer — a fault confined to some lanes, e.g. a corrupted
   active mask, perturbs a lane's trace even when the warp-level trace,
   the lowest active lane's stores, is untouched). *)
let diff_traces key ~expected ~actual =
  let rec diff_stores k i es as_ =
    match (es, as_) with
    | [], [] -> None
    | e :: es', a :: as' ->
        if e = a then diff_stores k (i + 1) es' as'
        else
          Some
            (Printf.sprintf "%s store #%d: expected %s, got %s" (key k) i
               (pp_store e) (pp_store a))
    | e :: _, [] ->
        Some
          (Printf.sprintf "%s: trace ends after %d stores, expected %s next"
             (key k) i (pp_store e))
    | [], a :: _ ->
        Some
          (Printf.sprintf "%s: %d extra stores starting with %s" (key k)
             (List.length as_) (pp_store a))
  in
  let missing (k, s) =
    Some (Printf.sprintf "%s stored nothing (expected %d stores)" (key k) (List.length s))
  and extra (k, s) =
    Some (Printf.sprintf "%s stored %d times unexpectedly" (key k) (List.length s))
  in
  let rec go es as_ =
    match (es, as_) with
    | [], [] -> None
    | ((ke, se) as e) :: es', ((ka, sa) as a) :: as' ->
        if ke < ka then missing e
        else if ka < ke then extra a
        else (
          match diff_stores ke 0 se sa with
          | None -> go es' as'
          | Some _ as d -> d)
    | e :: _, [] -> missing e
    | [], a :: _ -> extra a
  in
  go expected actual

let diff_store_traces =
  diff_traces (fun (cta, warp) -> Printf.sprintf "cta %d warp %d" cta warp)

type lane_store_trace = ((int * int * int) * (Instr.space * int * int) list) list

let diff_lane_store_traces =
  diff_traces (fun (cta, warp, lane) ->
      Printf.sprintf "cta %d warp %d lane %d" cta warp lane)
