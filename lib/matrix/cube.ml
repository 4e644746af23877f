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
   shares it or a read indexes it; from then on it is frozen and never
   written again, so any number of cubes and reader threads share it
   and its sorted views: one table of posting lists per dimension,
   built on the first filtered read of that dimension, and the whole
   table in key order, built on the first unfiltered read.  The slots
   are [Atomic], not [Lazy]: reader threads force them concurrently,
   and a concurrent [Lazy.force] can raise [Lazy.Undefined].  Two
   readers racing on an empty slot both build the same view and one of
   them wins.  A posting list holds the base's facts with one value at
   one dimension, sorted by key. *)
type base = {
  data : Value.t Tuple.Table.t;
  mutable frozen : bool;
  postings : (Tuple.t * Value.t) array Values.t option Atomic.t array;
  ordered : (Tuple.t * Value.t) array option Atomic.t;
}

type view = {
  size : int;
  dicts : Dict.t array;
  codes : Bytes.t array;
  widths : int array;
  measures : Value.t array;
  exceptions : (int * Value.t) array array;
  order : int array option Atomic.t;
}

(* A cube reads as its base with every key of its overlay rebound to
   the overlay's value ([Null] when removed).  The overlay is a
   persistent map keyed by [Tuple.hash], so a write costs O(log n) and
   a copy shares it.  A private base takes writes directly and its
   overlay stays empty.  [view] memoizes this version's columns: it
   belongs to this record, never to the base another version shares,
   and every write empties it. *)
type t = {
  schema : Schema.t;
  mutable base : base;
  mutable overlay : (Tuple.t * Value.t) list Hashes.t;
  mutable revised : int;  (* keys in [overlay] *)
  mutable net : int;  (* cardinality minus the base's *)
  view : view option Atomic.t;
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
    ordered = Atomic.make None;
  }

(* [frozen] only ever goes from false to true, and nobody writes a
   published cube's table, so threads that freeze one table at once
   (readers indexing it, a writer copying its cube) all store the same
   value. *)
let freeze base = if not base.frozen then base.frozen <- true

let create schema =
  {
    schema;
    base = private_base schema (Tuple.Table.create 64);
    overlay = Hashes.empty;
    revised = 0;
    net = 0;
    view = Atomic.make None;
  }

let schema c = c.schema
let name c = c.schema.Schema.name
let cardinality c = Tuple.Table.length c.base.data + c.net

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
  if Option.is_some (Atomic.get c.view) then Atomic.set c.view None;
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

let sorted facts =
  let rows = Array.of_list facts in
  Array.stable_sort by_key rows;
  rows

(* Indexing a base freezes it: its sorted views must never go stale. *)
let memo slot base build =
  match Atomic.get slot with
  | Some view -> view
  | None ->
      freeze base;
      let view = build base.data in
      Atomic.set slot (Some view);
      view

(* Each list is sorted on its own: sorting the whole table first costs
   more than all the lists together. *)
let postings base dim =
  memo base.postings.(dim) base (fun data ->
      let lists = Values.create 16 in
      Tuple.Table.iter
        (fun k v ->
          let x = Tuple.get k dim in
          let facts = Option.value ~default:[] (Values.find_opt lists x) in
          Values.replace lists x ((k, v) :: facts))
        data;
      let table = Values.create (Values.length lists) in
      Values.iter (fun x facts -> Values.replace table x (sorted facts)) lists;
      table)

let ordered base =
  memo base.ordered base (fun data ->
      sorted (Tuple.Table.fold (fun k v acc -> (k, v) :: acc) data []))

let matches filters key =
  List.for_all (fun (i, v) -> Value.equal (Tuple.get key i) v) filters

(* A read walks the shortest posting list among the filtered dimensions
   (the ordered table when there is no filter) in key order, skipping
   the keys the overlay rebinds or the other filters reject, and stops
   after [limit] rows; then it merges in the overlay's live matching
   keys.  It examines the rows it walks and the overlay, never the
   whole base. *)
let select ?limit ~filters c =
  let source, others =
    match filters with
    | [] -> (ordered c.base, [])
    | first :: rest ->
        let facts (i, v) =
          Option.value ~default:[||] (Values.find_opt (postings c.base i) v)
        in
        let shortest =
          List.fold_left
            (fun ((_, best) as kept) filter ->
              let list = facts filter in
              if Array.length list < Array.length best then (filter, list) else kept)
            (first, facts first) rest
        in
        (snd shortest, List.filter (fun f -> f != fst shortest) filters)
  in
  let limit = Option.value ~default:max_int limit in
  let rec walk i taken rows =
    if taken >= limit || i >= Array.length source then (i, List.rev rows)
    else
      let ((k, _) as row) = source.(i) in
      if Option.is_some (rebound c.overlay k) || not (matches others k) then
        walk (i + 1) taken rows
      else walk (i + 1) (taken + 1) (row :: rows)
  in
  let walked, base_rows = walk 0 0 [] in
  Obs.count ~n:(walked + c.revised) "cube.slice_keys_examined";
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
    List.merge by_key base_rows (List.sort by_key revised)
    |> List.filteri (fun i _ -> i < limit)

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
  { c with view = Atomic.make None }

let with_schema schema c =
  if Schema.arity schema <> Schema.arity c.schema then
    invalid_arg "Cube.with_schema: arity mismatch";
  freeze c.base;
  { c with schema; view = Atomic.make None }

(* [Value.equal] values that are different values: an [Int] beside a
   [Float], or two floats apart in their bits ([0.] beside [-0.]).  Two
   equal values of any other constructor are the same value. *)
let same_value a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.Int _, Value.Int _ -> true
  | Value.(Int _ | Float _), _ | _, Value.(Int _ | Float _) -> false
  | _ -> true

(* A column's row codes in as few bytes a code as its dictionary
   needs: the view outlives the readers of its cube version, so its
   codes stay small.  [code_at j] is row [j]'s code. *)
let pack ncodes size code_at =
  let width = if ncodes <= 0x100 then 1 else if ncodes <= 0x10000 then 2 else 4 in
  let bytes = Bytes.create (width * size) in
  (match width with
  | 1 ->
      for j = 0 to size - 1 do
        Bytes.set_uint8 bytes j (code_at j)
      done
  | 2 ->
      for j = 0 to size - 1 do
        Bytes.set_uint16_le bytes (2 * j) (code_at j)
      done
  | _ ->
      for j = 0 to size - 1 do
        Bytes.set_int32_le bytes (4 * j) (Int32.of_int (code_at j))
      done);
  (bytes, width)

let code v i r =
  let bytes = v.codes.(i) in
  match v.widths.(i) with
  | 1 -> Bytes.get_uint8 bytes r
  | 2 -> Bytes.get_uint16_le bytes (2 * r)
  | _ -> Int32.to_int (Bytes.get_int32_le bytes (4 * r))

(* A view being written: rows appended one at a time, each key value
   encoded as it arrives, the code arrays and measures grown by
   doubling.  A key that is not the same value as its code's first one
   goes on its column's exception list, rows descending. *)
type builder = {
  bdicts : Dict.t array;
  mutable bcodes : int array array;
  mutable bmeasures : Value.t array;
  mutable rows : int;
  bexceptions : (int * Value.t) list array;
}

let builder ?(size = 16) n =
  let cap = max 1 size in
  {
    bdicts = Array.init n (fun _ -> Dict.create ());
    bcodes = Array.init n (fun _ -> Array.make cap 0);
    bmeasures = Array.make cap Value.Null;
    rows = 0;
    bexceptions = Array.make n [];
  }

let reserve b =
  let cap = Array.length b.bmeasures in
  if b.rows = cap then begin
    let grown a fill =
      let a' = Array.make (2 * cap) fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    b.bcodes <- Array.map (fun a -> grown a 0) b.bcodes;
    b.bmeasures <- grown b.bmeasures Value.Null
  end

let encode b i x =
  let d = b.bdicts.(i) in
  let code = Dict.encode d x in
  b.bcodes.(i).(b.rows) <- code;
  let first = Dict.decode d code in
  if first != x && not (same_value first x) then
    b.bexceptions.(i) <- (b.rows, x) :: b.bexceptions.(i)

let add_row b (key : Value.t array) measure =
  reserve b;
  for i = 0 to Array.length b.bdicts - 1 do
    encode b i key.(i)
  done;
  b.bmeasures.(b.rows) <- measure;
  b.rows <- b.rows + 1

let add b (fact : Value.t array) =
  let n = Array.length b.bdicts in
  if Array.length fact <> n + 1 then
    invalid_arg
      (Printf.sprintf "Cube.add: a fact of width %d for %d key columns"
         (Array.length fact) n);
  add_row b fact fact.(n)

(* The view of the builder's rows [sel.(0)], [sel.(1)], ...  in that
   order ([None]: every row as added). *)
let freeze ?order ?sel b =
  let size = match sel with Some s -> Array.length s | None -> b.rows in
  let at = match sel with Some s -> Array.get s | None -> Fun.id in
  let packed =
    Array.mapi
      (fun i d ->
        let codes = b.bcodes.(i) in
        pack (Dict.size d) size (fun j -> codes.(at j)))
      b.bdicts
  in
  let exceptions =
    match sel with
    | None -> Array.map (fun rows -> Array.of_list (List.rev rows)) b.bexceptions
    | Some s ->
        (* each row's position in [s], -1 for a row left out *)
        let pos =
          lazy
            (let pos = Array.make b.rows (-1) in
             Array.iteri (fun j r -> pos.(r) <- j) s;
             pos)
        in
        Array.map
          (fun rows ->
            if rows = [] then [||]
            else
              let pos = Lazy.force pos in
              List.filter_map
                (fun (r, x) -> if pos.(r) >= 0 then Some (pos.(r), x) else None)
                rows
              |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
              |> Array.of_list)
          b.bexceptions
  in
  {
    size;
    dicts = b.bdicts;
    codes = Array.map fst packed;
    widths = Array.map snd packed;
    measures =
      (if Option.is_none sel && size = Array.length b.bmeasures then b.bmeasures
       else Array.init size (fun j -> b.bmeasures.(at j)));
    exceptions;
    order = Atomic.make order;
  }

(* The rows sorted by their key columns' ranks and then by measure,
   which is {!Tuple.compare} of whole facts.  Rows added in strictly
   ascending order, as a kernel walking its source in key order often
   adds them, are taken as they are.  Otherwise a counting sort by the
   first column and comparisons only inside its ties order them (the
   measures are ranked only when two keys tie), and a fact that ties
   with the one before it on every column repeats it and is dropped;
   the sort is stable, so the first one added stays. *)
let seal b =
  let n = Array.length b.bdicts and rows = b.rows in
  let keys = Array.mapi (fun i d -> lazy (b.bcodes.(i), Kernels.ranks d)) b.bdicts in
  let measures =
    lazy
      (let d = Dict.create () in
       let codes = Array.init rows (fun r -> Dict.encode d b.bmeasures.(r)) in
       (codes, Kernels.ranks d))
  in
  let columns = Array.append keys [| measures |] in
  let rec compare_from i r r' =
    let codes, rank = Lazy.force columns.(i) in
    match Int.compare rank.(codes.(r)) rank.(codes.(r')) with
    | 0 -> if i = n then 0 else compare_from (i + 1) r r'
    | c -> c
  in
  let rec ascending r = r >= rows || (compare_from 0 (r - 1) r < 0 && ascending (r + 1)) in
  if ascending 1 then freeze ~order:(Array.init rows Fun.id) b
  else begin
    let sorted, _ = Kernels.sort_rows columns (Array.init rows Fun.id) in
    let kept = ref 0 in
    Array.iter
      (fun r ->
        if !kept = 0 || compare_from 0 sorted.(!kept - 1) r <> 0 then begin
          sorted.(!kept) <- r;
          incr kept
        end)
      sorted;
    freeze ~order:(Array.init !kept Fun.id) ~sel:(Array.sub sorted 0 !kept) b
  end

(* One pass over the cube's facts in [iter] order. *)
let view c =
  match Atomic.get c.view with
  | Some v -> v
  | None ->
      let n = Schema.arity c.schema in
      let b = builder ~size:(cardinality c) n in
      iter
        (fun k x ->
          if Tuple.arity k <> n then validate_tuple c k;
          add_row b (k :> Value.t array) x)
        c;
      let v = freeze b in
      Obs.count "cube.views_built";
      Atomic.set c.view (Some v);
      v

(* Binary search of [rows.(lo .. hi-1)] for row [r]; it takes every
   value it reads as an argument, so a lookup allocates no closure. *)
let rec search rows r lo hi =
  if lo >= hi then None
  else
    let mid = (lo + hi) / 2 in
    let r', x = rows.(mid) in
    if r' = r then Some x
    else if r' < r then search rows r (mid + 1) hi
    else search rows r lo mid

let exception_at v i r =
  let rows = v.exceptions.(i) in
  search rows r 0 (Array.length rows)

let key_value v i r =
  let rows = v.exceptions.(i) in
  match if Array.length rows = 0 then None else search rows r 0 (Array.length rows) with
  | Some x -> x
  | None -> Dict.decode v.dicts.(i) (code v i r)

let row v r =
  let n = Array.length v.dicts in
  let fact = Array.make (n + 1) v.measures.(r) in
  for i = 0 to n - 1 do
    fact.(i) <- key_value v i r
  done;
  fact

(* Ranks per column, each built when the sort first needs it, over the
   column's codes unpacked. *)
let key_order v =
  match Atomic.get v.order with
  | Some order -> order
  | None ->
      let columns =
        Array.mapi
          (fun i dict -> lazy (Array.init v.size (code v i), Kernels.ranks dict))
          v.dicts
      in
      let order, _ = Kernels.sort_rows columns (Array.init v.size Fun.id) in
      Obs.count "cube.key_orders_built";
      Atomic.set v.order (Some order);
      order

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
