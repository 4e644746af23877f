type t = { schema : Schema.t; data : Value.t Tuple.Table.t }

exception Functionality_violation of { cube : string; key : Tuple.t }

let guard f =
  try f () with
  | Functionality_violation { cube; key } ->
      Error
        (Printf.sprintf "functionality violation in %s at %s" cube
           (Tuple.to_string key))
  | Invalid_argument msg -> Error msg

let create schema = { schema; data = Tuple.Table.create 64 }
let schema c = c.schema
let name c = c.schema.Schema.name
let cardinality c = Tuple.Table.length c.data
let is_empty c = cardinality c = 0

let set c key v =
  if Value.is_null v then Tuple.Table.remove c.data key
  else Tuple.Table.replace c.data key v

let add_strict c key v =
  if not (Value.is_null v) then
    match Tuple.Table.find_opt c.data key with
    | Some existing when not (Value.equal existing v) ->
        raise (Functionality_violation { cube = name c; key })
    | Some _ -> ()
    | None -> Tuple.Table.replace c.data key v

let validate_tuple c key =
  if not (Schema.compatible_tuple c.schema key) then
    invalid_arg
      (Printf.sprintf "Cube: tuple %s does not fit schema %s"
         (Tuple.to_string key)
         (Schema.to_string c.schema))

let find c key = Tuple.Table.find_opt c.data key

let find_exn c key =
  match find c key with
  | Some v -> v
  | None ->
      invalid_arg
        (Printf.sprintf "Cube.find_exn: %s undefined on %s" (name c)
           (Tuple.to_string key))

let mem c key = Tuple.Table.mem c.data key
let remove c key = Tuple.Table.remove c.data key
let iter f c = Tuple.Table.iter f c.data
let fold f c init = Tuple.Table.fold f c.data init
let keys c = fold (fun k _ acc -> k :: acc) c []

let by_key (a, _) (b, _) = Tuple.compare a b
let to_alist c = fold (fun k v acc -> (k, v) :: acc) c [] |> List.sort by_key

(* With a limit, a bounded max-heap keyed by [Tuple.compare] keeps the
   [limit] smallest admitted rows emitted so far; only those get
   sorted.  Its capacity is capped by [bound], so a huge client-supplied
   limit allocates no more than the producer can emit.  [admit] runs
   only on rows that would enter the heap. *)
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

let select ?limit p c =
  smallest ?limit ~bound:(cardinality c) (fun emit ->
      iter (fun k v -> if p k then emit k v) c)

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

let copy c = { schema = c.schema; data = Tuple.Table.copy c.data }

let with_schema schema c =
  if Schema.arity schema <> Schema.arity c.schema then
    invalid_arg "Cube.with_schema: arity mismatch";
  { schema; data = Tuple.Table.copy c.data }

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
