open Matrix

type fact = Value.t array

(* A relation's contents live in exactly one of two states:

   - [pending = Some view], row stores empty: the relation was
     installed wholesale as a column view ([set_view]: a source cube
     version's view, or the chase's Σst copy of one) and no tuple-level
     access has happened yet.  Whole-relation reads ([facts],
     [iter_facts], [cardinality]) are served straight from the view;
     the first row-level operation ([mem], [insert], [remove], index
     access) materializes the rows.

   - [pending = None]: the classic hashed row stores are live.

   [cache] memoizes the view of the current contents (it equals
   [pending] while that is set); any mutation drops it.

   An instance is touched by one domain at a time: nothing in it is
   synchronized. *)
type relation = {
  schema : Schema.t;
  store : unit Tuple.Table.t;
  indexes : (int list, fact list Tuple.Table.t) Hashtbl.t;
      (* persistent secondary indexes: sorted position list -> (values
         at those positions -> facts); created lazily by [ensure_index]
         and maintained by every later insert/remove *)
  mutable pending : Cube.view option;
  mutable cache : Cube.view option;
}

type t = {
  rels : (string, relation) Hashtbl.t;
  mutable builds : int;  (* index telemetry, see [index_stats] *)
  mutable lookups : int;
}

let create () = { rels = Hashtbl.create 32; builds = 0; lookups = 0 }

(* A relation starts with small tables: one the chase seals or installs
   as a view never fills them. *)
let add_relation t schema =
  let name = schema.Schema.name in
  if not (Hashtbl.mem t.rels name) then
    Hashtbl.replace t.rels name
      {
        schema;
        store = Tuple.Table.create 8;
        indexes = Hashtbl.create 1;
        pending = None;
        cache = None;
      }

let schema t name = Option.map (fun r -> r.schema) (Hashtbl.find_opt t.rels name)

let relations t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.rels [] |> List.sort String.compare

let relation_exn t name =
  match Hashtbl.find_opt t.rels name with
  | Some r -> r
  | None -> invalid_arg ("Instance: unknown relation " ^ name)

let index_stats t = (t.builds, t.lookups)

let index_key positions (fact : fact) =
  Tuple.of_list (List.map (fun p -> fact.(p)) positions)

(* Each row of a view, decoded into a fresh fact. *)
let iter_rows v f =
  for r = 0 to v.Cube.size - 1 do
    f (Cube.row v r)
  done

(* Turn a pending view into live row stores.  Indexes cannot exist
   yet for this relation (every index op materializes first), so only
   the primary stores are filled. *)
let materialize r =
  match r.pending with
  | None -> ()
  | Some v ->
      r.pending <- None;
      iter_rows v (fun fact -> Tuple.Table.replace r.store (Tuple.of_array fact) ())

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
   rebuilding lazily; views are immutable and shared outright. *)
let copy t =
  let out = { rels = Hashtbl.create (Hashtbl.length t.rels); builds = 0; lookups = 0 } in
  Hashtbl.iter
    (fun name r ->
      Hashtbl.replace out.rels name
        {
          schema = r.schema;
          store = Tuple.Table.copy r.store;
          indexes = Hashtbl.create 1;
          pending = r.pending;
          cache = r.cache;
        })
    t.rels;
  out

(* The table key IS the stored fact array ([Tuple.of_array] is an
   ownership transfer, not a copy), so iteration can expose it without
   copying — callers must not mutate the arrays.  A pending view is
   iterated directly (fresh arrays per row) without materializing. *)
let iter_facts t name f =
  let r = relation_exn t name in
  match r.pending with
  | Some v -> iter_rows v f
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

(* A pending view is decoded in its key order. *)
let facts t name =
  let r = relation_exn t name in
  match r.pending with
  | Some v -> Array.to_list (Array.map (Cube.row v) (Cube.key_order v))
  | None ->
      Tuple.Table.fold (fun k () acc -> Tuple.to_array k :: acc) r.store []
      |> List.sort (fun a b -> Tuple.compare (Tuple.of_array a) (Tuple.of_array b))

let cardinality t name =
  let r = relation_exn t name in
  match r.pending with
  | Some v -> v.Cube.size
  | None -> Tuple.Table.length r.store

let total_facts t =
  Hashtbl.fold (fun name _ acc -> acc + cardinality t name) t.rels 0

(* ----- column views ----- *)

(* The view of a relation's current contents, memoized until the next
   mutation.  Row stores are encoded and sealed, so the view's key
   order is the identity. *)
let view t name =
  let r = relation_exn t name in
  match r.cache with
  | Some v -> v
  | None ->
      let b = Cube.builder ~size:(cardinality t name) (Schema.arity r.schema) in
      iter_facts t name (Cube.add b);
      let v = Cube.seal b in
      r.cache <- Some v;
      v

let cached_view t name = (relation_exn t name).cache

(* Replace a relation's contents with a view, O(1): row stores are
   emptied and rebuilt only if tuple-level access happens later.  The
   caller promises the view's rows are distinct facts and its key order
   is their sorted order — true of a cube version's view, of a sealed
   one ([Cube.seal]) and of any view from [view]. *)
let set_view t schema v =
  let name = schema.Schema.name in
  let r = relation_exn t name in
  if not (Schema.equal r.schema schema && Array.length v.Cube.dicts = Schema.arity schema)
  then invalid_arg ("Instance.set_view: schema mismatch on " ^ name);
  Tuple.Table.reset r.store;
  Hashtbl.iter (fun _ idx -> Tuple.Table.reset idx) r.indexes;
  r.pending <- Some v;
  r.cache <- Some v

(* Each elementary cube is installed as its version's view, shared with
   every other reader of that version: the chase's Σst copy installs it
   as is, and row stores are built only if something needs them. *)
let of_registry reg =
  let t = create () in
  List.iter
    (fun name ->
      let cube = Registry.find_exn reg name in
      let schema = Cube.schema cube in
      add_relation t schema;
      set_view t schema (Cube.view cube))
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
