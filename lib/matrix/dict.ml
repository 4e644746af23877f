(* Codes are found by open addressing: [slots] holds [code + 1] per
   slot ([0]: empty), at most half full, probed linearly from
   [Value.hash].  A lookup allocates nothing and divides nothing. *)
type t = {
  mutable values : Value.t array;  (* code -> first value encoded *)
  mutable size : int;
  mutable slots : int array;
}

let create () = { values = Array.make 16 Value.Null; size = 0; slots = Array.make 32 0 }
let size t = t.size

(* The code of [v], or [-1 - i] for the empty slot [i] that ends its
   probe. *)
let probe t v =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let rec go i =
    let s = slots.(i) in
    if s = 0 then -1 - i
    else
      let x = t.values.(s - 1) in
      if x == v || Value.equal x v then s - 1 else go ((i + 1) land mask)
  in
  go (Value.hash v land mask)

let rehash t =
  let slots = Array.make (2 * Array.length t.slots) 0 in
  let mask = Array.length slots - 1 in
  for c = 0 to t.size - 1 do
    let rec place i =
      if slots.(i) = 0 then slots.(i) <- c + 1 else place ((i + 1) land mask)
    in
    place (Value.hash t.values.(c) land mask)
  done;
  t.slots <- slots

let encode t v =
  let i = probe t v in
  if i >= 0 then i
  else begin
    let c = t.size in
    if c = Array.length t.values then begin
      let values = Array.make (2 * c) Value.Null in
      Array.blit t.values 0 values 0 c;
      t.values <- values
    end;
    t.values.(c) <- v;
    t.size <- c + 1;
    t.slots.(-1 - i) <- c + 1;
    if 2 * t.size > Array.length t.slots then rehash t;
    c
  end

(* Find-only: [None] when the value was never encoded (a probe against
   a foreign dictionary that cannot match). *)
let find t v =
  let i = probe t v in
  if i >= 0 then Some i else None

let decode t c =
  if c < 0 || c >= t.size then invalid_arg "Dict.decode: code out of range";
  t.values.(c)

let is_null t c = Value.is_null t.values.(c)

let xlate a b =
  if a == b then None
  else
    Some
      (Array.init a.size (fun c ->
           match find b a.values.(c) with Some c' -> c' | None -> -1))
