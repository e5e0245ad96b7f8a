type t = {
  width : int;
  valid : int;
  mutable bits : int;
}

let create ~width ~valid =
  if width < 0 || width > 61 then invalid_arg "Bitmask.create: width out of [0, 61]";
  if valid < 0 || valid > width then invalid_arg "Bitmask.create: valid > width";
  (* Bits beyond [valid] start (and stay) set. *)
  let permanent = if valid >= width then 0 else ((1 lsl width) - 1) land lnot ((1 lsl valid) - 1) in
  { width; valid; bits = permanent }

let width t = t.width
let valid t = t.valid

let check t i =
  if i < 0 || i >= t.width then invalid_arg "Bitmask: bit index out of range"

let set t i = check t i; t.bits <- t.bits lor (1 lsl i)

let clear t i =
  check t i;
  if i >= t.valid then invalid_arg "Bitmask.clear: bit is permanently set";
  t.bits <- t.bits land lnot (1 lsl i)

let test t i = check t i; t.bits land (1 lsl i) <> 0

let usable_mask t = (1 lsl t.valid) - 1

let ffz t =
  let free = lnot t.bits land usable_mask t in
  if free = 0 then None else Some (Gpu_isa.Bits.lowest free)

let set_bits t = t.bits land usable_mask t
let popcount t = Gpu_isa.Bits.popcount (set_bits t)

let pp ppf t =
  for i = t.width - 1 downto 0 do
    Format.pp_print_char ppf (if t.bits land (1 lsl i) <> 0 then '1' else '0')
  done
