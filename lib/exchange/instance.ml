open Matrix

type fact = Value.t array

(* A relation's contents live in exactly one of two states:

   - [pending = Some batch], row stores empty: the relation was
     installed wholesale as a column batch ([set_batch], the chase's
     Σst source copy) and no tuple-level access has happened yet.
     Whole-relation reads ([facts], [iter_facts], [cardinality]) are
     served straight from the batch; the first row-level operation
     ([mem], [insert], [remove], index access) materializes the rows.

   - [pending = None]: the classic hashed row stores are live.

   [cache] memoizes the columnar view of the current contents (it
   equals [pending] while that is set); any mutation drops it.

   An instance is touched by one domain at a time: nothing in it is
   synchronized. *)
type relation = {
  schema : Schema.t;
  store : unit Tuple.Table.t;
  indexes : (int list, fact list Tuple.Table.t) Hashtbl.t;
      (* persistent secondary indexes: sorted position list -> (values
         at those positions -> facts); created lazily by [ensure_index]
         and maintained by every later insert/remove *)
  mutable pending : Columnar.Batch.t option;
  mutable cache : Columnar.Batch.t option;
}

type t = {
  rels : (string, relation) Hashtbl.t;
  pool : Dict.pool;
      (* per-instance dictionaries, one per domain: every batch encoded
         for this instance shares codes per domain, so same-domain
         columns join by int comparison *)
  mutable builds : int;  (* index telemetry, see [index_stats] *)
  mutable lookups : int;
}

let create () =
  {
    rels = Hashtbl.create 32;
    pool = Dict.create_pool ();
    builds = 0;
    lookups = 0;
  }

let add_relation t schema =
  let name = schema.Schema.name in
  if not (Hashtbl.mem t.rels name) then
    Hashtbl.replace t.rels name
      {
        schema;
        store = Tuple.Table.create 64;
        indexes = Hashtbl.create 4;
        pending = None;
        cache = None;
      }

let schema t name = Option.map (fun r -> r.schema) (Hashtbl.find_opt t.rels name)

let schema_exn t name =
  match schema t name with
  | Some s -> s
  | None -> invalid_arg ("Instance.schema_exn: unknown relation " ^ name)

let relations t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.rels [] |> List.sort String.compare

let relation_exn t name =
  match Hashtbl.find_opt t.rels name with
  | Some r -> r
  | None -> invalid_arg ("Instance: unknown relation " ^ name)

let index_stats t = (t.builds, t.lookups)

let index_key positions (fact : fact) =
  Tuple.of_list (List.map (fun p -> fact.(p)) positions)

(* Turn a pending batch into live row stores.  Indexes cannot exist
   yet for this relation (every index op materializes first), so only
   the primary stores are filled. *)
let materialize r =
  match r.pending with
  | None -> ()
  | Some batch ->
      r.pending <- None;
      Columnar.Batch.iter_rows batch (fun fact ->
          Tuple.Table.replace r.store (Tuple.of_array fact) ())

let insert t name fact =
  let r = relation_exn t name in
  if Array.length fact <> Schema.arity r.schema + 1 then
    invalid_arg
      (Printf.sprintf "Instance.insert: fact of width %d into %s"
         (Array.length fact)
         (Schema.to_string r.schema));
  materialize r;
  let key = Tuple.of_array fact in
  if Tuple.Table.mem r.store key then false
  else begin
    r.cache <- None;
    Tuple.Table.add r.store key ();
    Hashtbl.iter
      (fun positions idx ->
        Tuple.Table.add_multi idx (index_key positions fact) fact)
      r.indexes;
    true
  end

let remove t name fact =
  let r = relation_exn t name in
  materialize r;
  let key = Tuple.of_array fact in
  let before = Tuple.Table.length r.store in
  Tuple.Table.remove r.store key;
  if Tuple.Table.length r.store = before then false
  else begin
    r.cache <- None;
    Hashtbl.iter
      (fun positions idx ->
        Tuple.Table.filter_multi idx (index_key positions fact) (fun f ->
            not (Tuple.equal (Tuple.of_array f) key)))
      r.indexes;
    true
  end

let mem t name fact =
  let r = relation_exn t name in
  materialize r;
  Tuple.Table.mem r.store (Tuple.of_array fact)

(* Snapshot.  Row stores are copied and secondary indexes start empty,
   rebuilding lazily; batches, dictionaries and the pool are
   immutable/append-only and shared outright. *)
let copy t =
  let out =
    {
      rels = Hashtbl.create (Hashtbl.length t.rels);
      pool = t.pool;
      builds = 0;
      lookups = 0;
    }
  in
  Hashtbl.iter
    (fun name r ->
      Hashtbl.replace out.rels name
        {
          schema = r.schema;
          store = Tuple.Table.copy r.store;
          indexes = Hashtbl.create 4;
          pending = r.pending;
          cache = r.cache;
        })
    t.rels;
  out

(* The table key IS the stored fact array ([Tuple.of_array] is an
   ownership transfer, not a copy), so iteration can expose it without
   copying — callers must not mutate the arrays.  A pending batch is
   iterated directly (fresh arrays per row) without materializing. *)
let iter_facts t name f =
  let r = relation_exn t name in
  match r.pending with
  | Some batch -> Columnar.Batch.iter_rows batch f
  | None -> Tuple.Table.iter (fun k () -> f (k : Tuple.t :> Value.t array)) r.store

let ensure_index t name positions =
  let r = relation_exn t name in
  materialize r;
  if not (Hashtbl.mem r.indexes positions) then begin
    t.builds <- t.builds + 1;
    let idx = Tuple.Table.create (max 64 (Tuple.Table.length r.store)) in
    Tuple.Table.iter
      (fun k () ->
        let fact = (k : Tuple.t :> Value.t array) in
        Tuple.Table.add_multi idx (index_key positions fact) fact)
      r.store;
    Hashtbl.replace r.indexes positions idx
  end

let lookup_index t name positions values =
  t.lookups <- t.lookups + 1;
  ensure_index t name positions;
  let r = relation_exn t name in
  Tuple.Table.find_multi
    (Hashtbl.find r.indexes positions)
    (Tuple.of_list values)

let indexed_positions t name =
  let r = relation_exn t name in
  Hashtbl.fold (fun positions _ acc -> positions :: acc) r.indexes []
  |> List.sort compare

let clear t name =
  let r = relation_exn t name in
  r.pending <- None;
  r.cache <- None;
  Tuple.Table.reset r.store;
  Hashtbl.iter (fun _ idx -> Tuple.Table.reset idx) r.indexes

(* A pending batch is already in sorted order ([set_batch]'s contract). *)
let facts t name =
  let r = relation_exn t name in
  match r.pending with
  | Some batch -> Columnar.Batch.to_facts batch
  | None ->
      Tuple.Table.fold (fun k () acc -> Tuple.to_array k :: acc) r.store []
      |> List.sort (fun a b -> Tuple.compare (Tuple.of_array a) (Tuple.of_array b))

let cardinality t name =
  let r = relation_exn t name in
  match r.pending with
  | Some batch -> Columnar.Batch.nrows batch
  | None -> Tuple.Table.length r.store

let total_facts t =
  Hashtbl.fold (fun name _ acc -> acc + cardinality t name) t.rels 0

(* ----- columnar views ----- *)

(* The columnar view of a relation's current contents, encoded under
   this instance's dictionary pool and memoized until the next
   mutation.  Rows are in [facts] (sorted) order — the order the
   vectorized kernels rely on to replay the row engine exactly. *)
let batch t name =
  let r = relation_exn t name in
  match r.pending with
  | Some b -> b
  | None -> (
      match r.cache with
      | Some b -> b
      | None ->
          let b = Columnar.Batch.of_facts ~pool:t.pool r.schema (facts t name) in
          r.cache <- Some b;
          b)

(* Replace a relation's contents with a batch, O(columns): row stores
   are emptied and rebuilt only if tuple-level access happens later.
   The batch's dictionaries are adopted into this instance's pool
   (per dimension domain), so subsequent encodes share their codes.
   The caller promises the batch's rows are duplicate-free and in
   sorted order — true of any batch obtained from {!batch}. *)
let set_batch t name b =
  let r = relation_exn t name in
  if not (Schema.equal r.schema (Columnar.Batch.schema b)) then
    invalid_arg ("Instance.set_batch: schema mismatch on " ^ name);
  Tuple.Table.reset r.store;
  Hashtbl.iter (fun _ idx -> Tuple.Table.reset idx) r.indexes;
  Array.iteri
    (fun i (d : Schema.dimension) ->
      Dict.adopt t.pool d.Schema.dim_domain (Columnar.Batch.dim_dict b i))
    r.schema.Schema.dims;
  r.pending <- Some b;
  r.cache <- Some b

(* Each cube is installed as one column batch, in key order (which is
   [facts] order, keys being distinct): the chase's Σst copy adopts it
   as is, and row stores are built only if something needs them. *)
let of_registry reg =
  let t = create () in
  List.iter
    (fun name ->
      let cube = Registry.find_exn reg name in
      let schema = Cube.schema cube in
      add_relation t schema;
      set_batch t name
        (Columnar.Batch.of_facts ~pool:t.pool schema
           (List.map (fun (k, v) -> Tuple.append k v) (Cube.to_alist cube))))
    (Registry.elementary_names reg);
  t

let cube_of_relation t name =
  let r = relation_exn t name in
  let cube = Cube.create r.schema in
  let n = Schema.arity r.schema in
  List.iter
    (fun fact ->
      let key = Tuple.of_array (Array.sub fact 0 n) in
      Cube.add_strict cube key fact.(n))
    (facts t name);
  cube

let to_registry t ~elementary =
  let reg = Registry.create () in
  List.iter
    (fun name ->
      let kind =
        if List.mem name elementary then Registry.Elementary
        else Registry.Derived
      in
      Registry.add reg kind (cube_of_relation t name))
    (relations t);
  reg

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun name ->
      Format.fprintf ppf "%s: %d facts@," name (cardinality t name))
    (relations t);
  Format.fprintf ppf "@]"
