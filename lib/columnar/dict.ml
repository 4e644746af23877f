(* Dictionary encoding for column batches: a dense int code per
   distinct value (distinctness is [Value.equal], so [Int 1] and
   [Float 1.] share a code exactly as they share a slot in the row
   stores).  Dictionaries are append-only — codes, once issued, stay
   valid for the lifetime of every batch that references them — which
   is what makes batches shareable across instance snapshots without
   copying.

   Alongside the code -> value table each dictionary maintains a
   per-code float view ([Value.to_float], computed once per distinct
   value instead of once per row) and a validity flag (was [to_float]
   defined), so measure-like columns and group-by translations run as
   tight loops over arrays. *)

open Matrix

(* The dictionary's own hash: it agrees with [Value.equal] exactly as
   [Value.hash] does (an int hashes like the float it converts to), but
   allocates nothing.  It never leaves the dictionary, and codes are
   issued in first-seen order whatever the hash.  Ints are mixed, so a
   stride of a power of two does not pile them into a few buckets.  A
   date is one int per calendar day, read off the fields without a
   division, and a period its own hash, both unmixed: consecutive days
   and periods fill nearby buckets, which keeps their lookups
   cache-local. *)
let mix h =
  let h = h * 0x1E3779B97F4A7C15 in
  h lxor (h lsr 32)

(* Integral floats within +-2^53 convert to and from ints exactly, so
   they hash as the int; -0. hashes as 0 and every NaN alike. *)
let hash_float f =
  if Float.is_integer f && Float.abs f <= 0x1p53 then mix (int_of_float f)
  else Hashtbl.hash f

let hash = function
  | Value.Null -> 17
  | Value.Bool b -> if b then 31 else 37
  | Value.Int i ->
      if i >= -0x20000000000000 && i <= 0x20000000000000 then mix i
      else hash_float (float_of_int i)
  | Value.Float f -> hash_float f
  | Value.String s -> Hashtbl.hash s
  | Value.Date { Calendar.Date.year; month; day } ->
      (((year * 12) + month) * 31) + day
  | Value.Period p -> 0x9E12 lxor Calendar.Period.hash p

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = hash
end)

type t = {
  mutable values : Value.t array;  (* code -> first value encoded *)
  mutable floats : float array;  (* code -> to_float, nan when undefined *)
  mutable valid : Bytes.t;  (* code -> to_float was Some (1 byte/code) *)
  mutable size : int;
  codes : int VH.t;
}

let create () =
  {
    values = Array.make 16 Value.Null;
    floats = Array.make 16 Float.nan;
    valid = Bytes.make 16 '\000';
    size = 0;
    codes = VH.create 64;
  }

let size t = t.size

let grow t =
  let cap = Array.length t.values in
  if t.size >= cap then begin
    let cap' = cap * 2 in
    let values = Array.make cap' Value.Null in
    Array.blit t.values 0 values 0 t.size;
    t.values <- values;
    let floats = Array.make cap' Float.nan in
    Array.blit t.floats 0 floats 0 t.size;
    t.floats <- floats;
    let valid = Bytes.make cap' '\000' in
    Bytes.blit t.valid 0 valid 0 t.size;
    t.valid <- valid
  end

(* Find-or-add: the code of [v], issuing a fresh one on first sight. *)
let encode t v =
  match VH.find_opt t.codes v with
  | Some c -> c
  | None ->
      grow t;
      let c = t.size in
      t.values.(c) <- v;
      (match Value.to_float v with
      | Some f ->
          t.floats.(c) <- f;
          Bytes.set t.valid c '\001'
      | None -> ());
      t.size <- c + 1;
      VH.replace t.codes v c;
      c

(* Find-only: [None] when the value was never encoded (a probe against
   a foreign dictionary that cannot match). *)
let find t v = VH.find_opt t.codes v

let decode t c =
  if c < 0 || c >= t.size then invalid_arg "Dict.decode: code out of range";
  t.values.(c)

let float_of_code t c = t.floats.(c)
let float_defined t c = Bytes.get t.valid c <> '\000'
let is_null t c = Value.is_null t.values.(c)

(* ----- per-domain dictionary pools ----- *)

(* One dictionary per {!Matrix.Domain.t} within a pool: two columns of
   the same domain (e.g. the quarter key of every relation in an
   instance) share codes, so equi-joins compare ints with no
   translation.  Pools are per-instance, not process-global: the
   append path is unsynchronized, and sharing across OCaml 5 domains
   would need locking on the hot path. *)
type pool = (Domain.t, t) Hashtbl.t

let create_pool () : pool = Hashtbl.create 8

let for_domain (pool : pool) dom =
  match Hashtbl.find_opt pool dom with
  | Some d -> d
  | None ->
      let d = create () in
      Hashtbl.replace pool dom d;
      d

(* Adopt a foreign dictionary (from a batch encoded under another
   pool) as this pool's dictionary for [dom], unless one exists
   already.  Installing a source instance's batches into a chase
   target adopts the source dictionaries, so every batch later encoded
   in the target shares their codes. *)
let adopt (pool : pool) dom d =
  if not (Hashtbl.mem pool dom) then Hashtbl.replace pool dom d

(* Code translation between dictionaries: [xlate a b].(c) is [b]'s
   code for [a]'s value [c], or -1 when [b] never saw that value.
   Used by join kernels when the two sides' columns ended up in
   different dictionaries; O(|a|) once instead of a hash probe per
   row. *)
let xlate a b =
  if a == b then None
  else
    Some
      (Array.init a.size (fun c ->
           match find b a.values.(c) with Some c' -> c' | None -> -1))
