(* A column batch: one relation's fact set decomposed into
   dictionary-encoded dimension columns plus a typed measure column.
   Batches are immutable snapshots — the chase installs them wholesale
   (Σst source copies), kernels read them, and row stores materialize
   from them lazily when tuple-at-a-time access is actually needed.

   Row order is the construction order and is significant: batches are
   built from [Instance.facts] (sorted), so kernels that replay the
   row path's "iterate sorted facts" loops hit the same rows in the
   same order — which keeps float accumulation order, first-seen group
   order, and error precedence bit-identical to the row-at-a-time
   engine. *)

open Matrix

type t = {
  schema : Schema.t;
  nrows : int;
  dim_codes : int array array;  (* per dimension: one code per row *)
  dim_dicts : Dict.t array;  (* per dimension: the (shared) dictionary *)
  meas : Value.t array;  (* exact measure values, one per row *)
  meas_float : float array;  (* Value.to_float view; nan when undefined *)
  meas_valid : Bytes.t;  (* validity bitmap: to_float was Some *)
}

let schema t = t.schema
let nrows t = t.nrows
let dim_codes t i = t.dim_codes.(i)
let dim_dict t i = t.dim_dicts.(i)
let measures t = t.meas
let measure_floats t = t.meas_float
let measure_valid t r = Bytes.get t.meas_valid r <> '\000'

(* Build from facts (dimension values followed by the measure), one
   row per fact in list order.  Dimension dictionaries come from
   [pool], keyed by the schema's per-dimension domain, so every batch
   encoded under one pool shares codes per domain. *)
let of_facts ~pool schema (facts : Value.t array list) =
  let ndims = Schema.arity schema in
  let nrows = List.length facts in
  let dim_dicts =
    Array.init ndims (fun i ->
        Dict.for_domain pool schema.Schema.dims.(i).Schema.dim_domain)
  in
  let dim_codes = Array.init ndims (fun _ -> Array.make nrows 0) in
  let meas = Array.make nrows Value.Null in
  let meas_float = Array.make nrows Float.nan in
  let meas_valid = Bytes.make nrows '\000' in
  List.iteri
    (fun r fact ->
      if Array.length fact <> ndims + 1 then
        invalid_arg
          (Printf.sprintf "Batch.of_facts: fact of width %d into %s"
             (Array.length fact)
             (Schema.to_string schema));
      for i = 0 to ndims - 1 do
        dim_codes.(i).(r) <- Dict.encode dim_dicts.(i) fact.(i)
      done;
      let m = fact.(ndims) in
      meas.(r) <- m;
      match Value.to_float m with
      | Some f ->
          meas_float.(r) <- f;
          Bytes.set meas_valid r '\001'
      | None -> ())
    facts;
  { schema; nrows; dim_codes; dim_dicts; meas; meas_float; meas_valid }

(* Decode row [r] into a fresh fact array (callers may keep it). *)
let row t r =
  let ndims = Array.length t.dim_dicts in
  let fact = Array.make (ndims + 1) t.meas.(r) in
  for i = 0 to ndims - 1 do
    fact.(i) <- Dict.decode t.dim_dicts.(i) t.dim_codes.(i).(r)
  done;
  fact

let iter_rows t f =
  for r = 0 to t.nrows - 1 do
    f (row t r)
  done

(* Decoded facts in row order.  Note the decode is up to [Value.equal]:
   a column holding both [Int 1] and [Float 1.] (equal values, one
   code) decodes every occurrence as whichever was encoded first —
   the same conflation the row stores' tuple-keyed hashtables apply
   on insert. *)
let to_facts t = List.init t.nrows (row t)
