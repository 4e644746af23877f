exception Functionality_violation of { cube : string; key : Tuple.t }

let guard f =
  try f () with
  | Functionality_violation { cube; key } ->
      Error
        (Printf.sprintf "functionality violation in %s at %s" cube
           (Tuple.to_string key))
  | Invalid_argument msg -> Error msg

module Values = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

module Hashes = Map.Make (Int)

(* A hash table of facts.  It is private to one cube until a copy
   shares it or a filtered read indexes it; from then on it is frozen
   and never written again, so any number of cubes and reader threads
   share it, and its posting lists: one table per dimension, built on
   the first filtered read of that dimension.  The slots are [Atomic],
   not [Lazy]: reader threads force them concurrently, and a concurrent
   [Lazy.force] can raise [Lazy.Undefined].  Two readers racing on an
   empty slot both build the same table and one of them wins.  A
   posting list holds the base's facts with one value at one
   dimension, in no particular order. *)
type base = {
  data : Value.t Tuple.Table.t;
  mutable frozen : bool;
  postings : (Tuple.t * Value.t) array Values.t option Atomic.t array;
}

(* A cube reads as its base with every key of its overlay rebound to
   the overlay's value ([Null] when removed).  The overlay is a
   persistent map keyed by [Tuple.hash], so a write costs O(log n) and
   a copy shares it.  A private base takes writes directly and its
   overlay stays empty. *)
type t = {
  schema : Schema.t;
  mutable base : base;
  mutable overlay : (Tuple.t * Value.t) list Hashes.t;
  mutable revised : int;  (* keys in [overlay] *)
  mutable net : int;  (* cardinality minus the base's *)
}

(* The overlay is folded into a fresh private base once it holds more
   than one key per [fold_ratio] facts of its base.  A fold copies at
   most (fold_ratio + 1) x the keys revised since the base froze, so a
   write copies O(1) facts, amortized. *)
let fold_ratio = 8

let private_base schema data =
  {
    data;
    frozen = false;
    postings = Array.init (Schema.arity schema) (fun _ -> Atomic.make None);
  }

(* Only the owner of a private base writes [frozen], so a reader of a
   frozen base never races with the write. *)
let freeze base = if not base.frozen then base.frozen <- true

let create schema =
  {
    schema;
    base = private_base schema (Tuple.Table.create 64);
    overlay = Hashes.empty;
    revised = 0;
    net = 0;
  }

let schema c = c.schema
let name c = c.schema.Schema.name
let cardinality c = Tuple.Table.length c.base.data + c.net
let is_empty c = cardinality c = 0

let rec lookup key = function
  | [] -> None
  | (k, v) :: rest -> if Tuple.equal k key then Some v else lookup key rest

let rebound overlay key =
  match Hashes.find_opt (Tuple.hash key) overlay with
  | None -> None
  | Some bucket -> lookup key bucket

let find c key =
  if Hashes.is_empty c.overlay then Tuple.Table.find_opt c.base.data key
  else
    match rebound c.overlay key with
    | Some v -> if Value.is_null v then None else Some v
    | None -> Tuple.Table.find_opt c.base.data key

let find_exn c key =
  match find c key with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Cube.find_exn: %s undefined on %s" (name c)
           (Tuple.to_string key))

let mem c key = Option.is_some (find c key)

let iter f c =
  if Hashes.is_empty c.overlay then Tuple.Table.iter f c.base.data
  else begin
    Tuple.Table.iter
      (fun k v -> if Option.is_none (rebound c.overlay k) then f k v)
      c.base.data;
    Hashes.iter
      (fun _ bucket ->
        List.iter (fun (k, v) -> if not (Value.is_null v) then f k v) bucket)
      c.overlay
  end

let fold f c init =
  if Hashes.is_empty c.overlay then Tuple.Table.fold f c.base.data init
  else begin
    let acc = ref init in
    iter (fun k v -> acc := f k v !acc) c;
    !acc
  end

let keys c = fold (fun k _ acc -> k :: acc) c []

let fold_overlay c =
  let data = Tuple.Table.create (cardinality c) in
  iter (Tuple.Table.add data) c;
  Obs.count ~n:(Tuple.Table.length data) "cube.facts_copied";
  c.base <- private_base c.schema data;
  c.overlay <- Hashes.empty;
  c.revised <- 0;
  c.net <- 0

let set c key v =
  let base = c.base in
  if not base.frozen then
    if Value.is_null v then Tuple.Table.remove base.data key
    else Tuple.Table.replace base.data key v
  else begin
    let h = Tuple.hash key in
    let bucket = Option.value ~default:[] (Hashes.find_opt h c.overlay) in
    let before = lookup key bucket in
    let was =
      match before with
      | Some w -> not (Value.is_null w)
      | None -> Tuple.Table.mem base.data key
    in
    c.overlay <-
      Hashes.add h
        ((key, v) :: List.filter (fun (k, _) -> not (Tuple.equal k key)) bucket)
        c.overlay;
    if Option.is_none before then c.revised <- c.revised + 1;
    c.net <- c.net + Bool.to_int (not (Value.is_null v)) - Bool.to_int was;
    if c.revised * fold_ratio > Tuple.Table.length base.data then fold_overlay c
  end

let remove c key = set c key Value.Null

let add_strict c key v =
  if not (Value.is_null v) then
    match find c key with
    | Some existing when not (Value.equal existing v) ->
        raise (Functionality_violation { cube = name c; key })
    | Some _ -> ()
    | None -> set c key v

let validate_tuple c key =
  if not (Schema.compatible_tuple c.schema key) then
    invalid_arg
      (Printf.sprintf "Cube: tuple %s does not fit schema %s"
         (Tuple.to_string key)
         (Schema.to_string c.schema))

let by_key (a, _) (b, _) = Tuple.compare a b
let to_alist c = fold (fun k v acc -> (k, v) :: acc) c [] |> List.sort by_key

(* The rows [produce] passes to its callback whose key [admit] accepts,
   sorted by key, only the first [limit] of them.  With a limit, a
   bounded max-heap keyed by [Tuple.compare] keeps the [limit] smallest
   admitted rows emitted so far; only those get sorted.  Its capacity
   is capped by [bound], an upper bound on the rows produced, so a huge
   client-supplied limit allocates no more than the producer can emit.
   [admit] runs only on rows that would enter the heap.  Keys must be
   distinct. *)
let smallest ?limit ?(admit = fun _ -> true) ~bound produce =
  match limit with
  | None ->
      let rows = ref [] in
      produce (fun k v -> if admit k then rows := (k, v) :: !rows);
      List.sort by_key !rows
  | Some n ->
      let cap = min n bound in
      if cap <= 0 then []
      else begin
        let heap = Array.make cap (Tuple.of_array [||], Value.Null) in
        let size = ref 0 in
        let above i j = by_key heap.(i) heap.(j) > 0 in
        let swap i j =
          let x = heap.(i) in
          heap.(i) <- heap.(j);
          heap.(j) <- x
        in
        let rec up i =
          let parent = (i - 1) / 2 in
          if i > 0 && above i parent then (swap i parent; up parent)
        in
        let rec down i =
          let l = (2 * i) + 1 in
          if l < !size then begin
            let m = if l + 1 < !size && above (l + 1) l then l + 1 else l in
            if above m i then (swap m i; down m)
          end
        in
        produce (fun k v ->
            if !size < cap then begin
              if admit k then begin
                heap.(!size) <- (k, v);
                incr size;
                up (!size - 1)
              end
            end
            else if Tuple.compare k (fst heap.(0)) < 0 && admit k then begin
              heap.(0) <- (k, v);
              down 0
            end);
        let rows = Array.sub heap 0 !size in
        Array.sort by_key rows;
        Array.to_list rows
      end

(* Indexing a base freezes it: its posting lists must never go stale. *)
let postings base dim =
  let slot = base.postings.(dim) in
  match Atomic.get slot with
  | Some table -> table
  | None ->
      freeze base;
      let lists = Values.create 16 in
      Tuple.Table.iter
        (fun k v ->
          let x = Tuple.get k dim in
          let facts = Option.value ~default:[] (Values.find_opt lists x) in
          Values.replace lists x ((k, v) :: facts))
        base.data;
      let table = Values.create (Values.length lists) in
      Values.iter (fun x facts -> Values.replace table x (Array.of_list facts)) lists;
      Atomic.set slot (Some table);
      table

let matches filters key =
  List.for_all (fun (i, v) -> Value.equal (Tuple.get key i) v) filters

(* A filtered read takes the shortest posting list among the filtered
   dimensions and keeps the smallest of its facts that the overlay does
   not rebind (checked only for facts small enough to make the cut),
   then merges in the overlay's live matching keys: it examines that
   list and the overlay, never the whole base. *)
let select ?limit ~filters c =
  let shortest =
    List.fold_left
      (fun best ((i, v) as filter) ->
        let facts =
          Option.value ~default:[||] (Values.find_opt (postings c.base i) v)
        in
        match best with
        | Some (_, b) when Array.length b <= Array.length facts -> best
        | _ -> Some (filter, facts))
      None filters
  in
  let from_base =
    match shortest with
    | Some (_, facts) -> Array.length facts
    | None -> Tuple.Table.length c.base.data
  in
  Obs.count ~n:(from_base + c.revised) "cube.slice_keys_examined";
  let admit =
    if Hashes.is_empty c.overlay then None
    else Some (fun k -> Option.is_none (rebound c.overlay k))
  in
  let base_rows =
    smallest ?limit ?admit ~bound:from_base (fun emit ->
        match shortest with
        | Some (filter, facts) ->
            let others = List.filter (fun f -> f != filter) filters in
            Array.iter (fun (k, v) -> if matches others k then emit k v) facts
        | None -> Tuple.Table.iter emit c.base.data)
  in
  if Hashes.is_empty c.overlay then base_rows
  else
    let revised =
      Hashes.fold
        (fun _ bucket acc ->
          List.fold_left
            (fun acc (k, v) ->
              if (not (Value.is_null v)) && matches filters k then (k, v) :: acc
              else acc)
            acc bucket)
        c.overlay []
    in
    let emit_all rows emit = List.iter (fun (k, v) -> emit k v) rows in
    smallest ?limit
      ~bound:(List.length base_rows + List.length revised)
      (fun emit ->
        emit_all base_rows emit;
        emit_all revised emit)

let of_alist schema alist =
  let c = create schema in
  List.iter (fun (k, v) -> set c k v) alist;
  c

let of_rows schema rows =
  let n = Schema.arity schema in
  let c = create schema in
  List.iter
    (fun row ->
      let arr = Array.of_list row in
      if Array.length arr <> n + 1 then
        invalid_arg
          (Printf.sprintf "Cube.of_rows: row of width %d for schema %s"
             (Array.length arr)
             (Schema.to_string schema));
      let key = Tuple.of_array (Array.sub arr 0 n) in
      validate_tuple c key;
      set c key arr.(n))
    rows;
  c

let copy c =
  freeze c.base;
  { c with schema = c.schema }

let with_schema schema c =
  if Schema.arity schema <> Schema.arity c.schema then
    invalid_arg "Cube.with_schema: arity mismatch";
  freeze c.base;
  { c with schema }

let map_measure f c =
  let out = create c.schema in
  iter (fun k v -> set out k (f v)) c;
  out

let mapi f schema c =
  let out = create schema in
  iter
    (fun k v ->
      match f k v with
      | Some (k', v') -> add_strict out k' v'
      | None -> ())
    c;
  out

let filter p c =
  let out = create c.schema in
  iter (fun k v -> if p k v then set out k v) c;
  out

let merge_join combine schema a b =
  let small, large, flip =
    if cardinality a <= cardinality b then (a, b, false) else (b, a, true)
  in
  let out = create schema in
  iter
    (fun k v_small ->
      match find large k with
      | Some v_large ->
          let v =
            if flip then combine v_large v_small else combine v_small v_large
          in
          set out k v
      | None -> ())
    small;
  out

let merge_outer combine schema a b =
  let out = create schema in
  iter
    (fun k va ->
      let vb = find b k in
      set out k (combine (Some va) vb))
    a;
  iter
    (fun k vb -> if not (mem a k) then set out k (combine None (Some vb)))
    b;
  out

let values_close eps a b =
  match (Value.to_float a, Value.to_float b) with
  | Some x, Some y -> Float.abs (x -. y) <= eps
  | _ -> Value.equal a b

let equal_data ?(eps = 1e-9) a b =
  cardinality a = cardinality b
  && fold
       (fun k v ok ->
         ok
         && match find b k with Some w -> values_close eps v w | None -> false)
       a true

let diff_data ?(eps = 1e-9) a b =
  let out = ref [] and count = ref 0 in
  let report msg =
    incr count;
    if !count <= 20 then out := msg :: !out
  in
  iter
    (fun k v ->
      match find b k with
      | None ->
          report (Printf.sprintf "missing in %s: %s" (name b) (Tuple.to_string k))
      | Some w when not (values_close eps v w) ->
          report
            (Printf.sprintf "at %s: %s=%s vs %s=%s" (Tuple.to_string k)
               (name a) (Value.to_string v) (name b) (Value.to_string w))
      | Some _ -> ())
    a;
  iter
    (fun k _ ->
      if not (mem a k) then
        report (Printf.sprintf "extra in %s: %s" (name b) (Tuple.to_string k)))
    b;
  let msgs = List.rev !out in
  if !count > 20 then
    msgs @ [ Printf.sprintf "... and %d more" (!count - 20) ]
  else msgs

let pp ppf c =
  Format.fprintf ppf "@[<v2>%s [%d tuples]" (Schema.to_string c.schema)
    (cardinality c);
  List.iter
    (fun (k, v) ->
      Format.fprintf ppf "@,%s -> %s" (Tuple.to_string k) (Value.to_string v))
    (to_alist c);
  Format.fprintf ppf "@]"

let to_string c = Format.asprintf "%a" pp c
