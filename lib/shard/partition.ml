(* Dimension partitioning for the sharded chase.

   A shard plan answers two questions about a mapping [M] and a shard
   key (a dimension name): which relations can be split by that key,
   and which tgds stay *shard-local* — evaluating them independently
   on each partition and unioning the per-shard results yields exactly
   the global chase result.  The co-partitioning check below proves
   locality tgd by tgd, or names the atom that breaks it; everything
   it cannot prove runs after the merge, in the residual pass.

   Relation statuses form a small lattice:

   - [Partitioned p]: the relation carries the shard key at dimension
     position [p]; every fact lives in exactly one shard, decided by
     its key value.
   - [Replicated]: no shard key; every shard holds the full relation
     (sources are copied in, replicated *derived* relations are
     recomputed identically per shard from replicated inputs).
   - [Merged]: the per-shard union is exactly the global fact set, but
     the key was projected away, so no single shard holds a
     shard-consistent slice — the relation is *unreadable* during the
     shard phase and its functionality egd can only be checked after
     the merge.
   - [Residual]: only computed by the post-merge residual pass; any
     tgd reading it is itself residual. *)

open Matrix
open Mappings
open Exchange

type status = Partitioned of int | Replicated | Merged | Residual

type t = {
  mapping : Mapping.t;
  key : string;
  shards : int;
  range : bool;
  status : (string * status) list;  (** every source and target relation *)
  local : Tgd.t list;  (** shard-local tgds, statement order *)
  residual : Tgd.t list;  (** cross-shard tgds, statement order *)
  reasons : (string * string) list;
      (** target relation -> why it is residual (or merged) *)
}

let status_to_string = function
  | Partitioned p -> Printf.sprintf "partitioned@%d" p
  | Replicated -> "replicated"
  | Merged -> "merged"
  | Residual -> "residual"

(* ----- the co-partitioning check ----- *)

(* The term a partitioned atom carries at its relation's shard
   position, when it is a plain variable. *)
let shard_var (a : Tgd.atom) p =
  match List.nth_opt a.Tgd.args p with Some (Term.Var v) -> Some v | _ -> None

(* Position of [Var v] among a term list (rhs dims or group-by). *)
let var_position v terms =
  let rec find i = function
    | [] -> None
    | Term.Var u :: _ when String.equal u v -> Some i
    | _ :: rest -> find (i + 1) rest
  in
  find 0 terms

type verdict =
  | Local of status  (* shard-local; the target's resulting status *)
  | Cross of string  (* cross-shard, with the offending atom / reason *)
  | Local_merged of string  (* shard-local but the target is Merged *)

let classify ~key (m : Mapping.t) =
  let status : (string, status) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (s : Schema.t) ->
      Hashtbl.replace status s.Schema.name
        (match Schema.dim_index s key with
        | Some p -> Partitioned p
        | None -> Replicated))
    m.Mapping.source;
  (* Targets of not-yet-classified tgds: reading one means the mapping
     is not stratified along statement order here — conservatively
     cross-shard. *)
  let pending = Hashtbl.create 16 in
  List.iter
    (fun t -> Hashtbl.replace pending (Tgd.target_relation t) ())
    m.Mapping.t_tgds;
  let lookup rel =
    match Hashtbl.find_opt status rel with
    | Some st -> Ok st
    | None ->
        if Hashtbl.mem pending rel then
          Error (Printf.sprintf "%s is derived by a later statement" rel)
        else
          (* neither a source nor any tgd's target: it stays empty, so
             any placement is correct — classify by schema *)
          Ok
            (match
               List.find_opt
                 (fun (s : Schema.t) -> String.equal s.Schema.name rel)
                 m.Mapping.target
             with
            | Some s -> (
                match Schema.dim_index s key with
                | Some p -> Partitioned p
                | None -> Replicated)
            | None -> Replicated)
  in
  (* A source atom whose relation is merged or residual poisons the
     whole tgd: merged relations are not shard-consistent, residual
     ones do not exist yet during the shard phase. *)
  let unreadable rels =
    List.find_map
      (fun rel ->
        match lookup rel with
        | Error why -> Some why
        | Ok Residual ->
            Some (Printf.sprintf "%s is residual (computed after the merge)" rel)
        | Ok Merged ->
            Some
              (Printf.sprintf
                 "%s is merged-only (its per-shard slices are not \
                  shard-consistent)"
                 rel)
        | Ok _ -> None)
      rels
  in
  let classify_tgd (tgd : Tgd.t) : verdict =
    match tgd with
    | Tgd.Tuple_level { lhs; rhs } -> (
        match unreadable (List.map (fun (a : Tgd.atom) -> a.Tgd.rel) lhs) with
        | Some why -> Cross why
        | None -> (
            let parts =
              List.filter_map
                (fun (a : Tgd.atom) ->
                  match lookup a.Tgd.rel with
                  | Ok (Partitioned p) -> Some (a, p)
                  | _ -> None)
                lhs
            in
            match parts with
            | [] -> Local Replicated (* all-replicated, or a constant cube *)
            | (a0, p0) :: rest -> (
                (* every partitioned atom must carry one and the same
                   plain variable at its relation's shard position:
                   then all joins over those atoms are equated on the
                   key, hence shard-local *)
                match shard_var a0 p0 with
                | None ->
                    Cross
                      (Printf.sprintf
                         "atom %s has a non-variable term at shard position %d"
                         (Tgd.atom_to_string a0) p0)
                | Some v -> (
                    match
                      List.find_opt
                        (fun (a, p) -> shard_var a p <> Some v)
                        rest
                    with
                    | Some (a, p) ->
                        Cross
                          (Printf.sprintf
                             "atom %s does not join on the shard key \
                              variable %s at position %d"
                             (Tgd.atom_to_string a) v p)
                    | None -> (
                        (* shard-local; does the target keep the key? *)
                        let nargs = List.length rhs.Tgd.args in
                        let dims =
                          List.filteri (fun i _ -> i < nargs - 1) rhs.Tgd.args
                        in
                        match var_position v dims with
                        | Some q -> Local (Partitioned q)
                        | None ->
                            Local_merged
                              (Printf.sprintf
                                 "projection drops the shard key variable %s"
                                 v))))))
    | Tgd.Aggregation { source; group_by; _ } -> (
        match unreadable [ source.Tgd.rel ] with
        | Some why -> Cross why
        | None -> (
            match lookup source.Tgd.rel with
            | Ok Replicated -> Local Replicated
            | Ok (Partitioned p) -> (
                match shard_var source p with
                | None ->
                    Cross
                      (Printf.sprintf
                         "source %s has a non-variable term at shard \
                          position %d"
                         (Tgd.atom_to_string source) p)
                | Some v -> (
                    (* partial aggregates do not union: the group-by
                       must keep the key so every group is wholly
                       inside one shard *)
                    match var_position v group_by with
                    | Some q -> Local (Partitioned q)
                    | None ->
                        Cross
                          (Printf.sprintf
                             "group-by drops the shard key variable %s: \
                              groups span shards"
                             v)))
            | Ok _ | Error _ -> Cross "unreachable: unreadable checked above"))
    | Tgd.Table_fn { source; _ } -> (
        match unreadable [ source ] with
        | Some why -> Cross why
        | None -> (
            match lookup source with
            | Ok Replicated -> Local Replicated
            | Ok (Partitioned _) ->
                (* a blackbox consumes the whole relation; nothing
                   proves it distributes over a partition of it *)
                Cross
                  (Printf.sprintf
                     "blackbox table function consumes the whole of %s"
                     source)
            | Ok _ | Error _ -> Cross "unreachable: unreadable checked above"))
    | Tgd.Outer_combine { left; right; _ } -> (
        match unreadable [ left.Tgd.rel; right.Tgd.rel ] with
        | Some why -> Cross why
        | None -> (
            match (lookup left.Tgd.rel, lookup right.Tgd.rel) with
            | Ok Replicated, Ok Replicated -> Local Replicated
            | Ok (Partitioned p), Ok (Partitioned q) when p = q ->
                (* operands are matched positionally on their dim
                   tuples; equal key positions put every matching (and
                   every default-filled) pair in one shard *)
                Local (Partitioned p)
            | Ok (Partitioned p), Ok (Partitioned q) ->
                Cross
                  (Printf.sprintf
                     "operands are partitioned on different dimension \
                      positions (%d vs %d)"
                     p q)
            | Ok (Partitioned _), Ok Replicated
            | Ok Replicated, Ok (Partitioned _) ->
                (* the replicated side's unmatched tuples would be
                   default-filled once per shard, each time against a
                   different slice of the partitioned side — wrong in
                   every shard but the owner *)
                Cross
                  "outer default-fill pairs a partitioned operand with a \
                   replicated one"
            | _ -> Cross "unreachable: unreadable checked above"))
  in
  let local = ref [] and residual = ref [] and reasons = ref [] in
  List.iter
    (fun tgd ->
      let target = Tgd.target_relation tgd in
      Hashtbl.remove pending target;
      match classify_tgd tgd with
      | Local st ->
          Hashtbl.replace status target st;
          local := tgd :: !local
      | Local_merged why ->
          Hashtbl.replace status target Merged;
          reasons := (target, why) :: !reasons;
          local := tgd :: !local
      | Cross why ->
          Hashtbl.replace status target Residual;
          reasons := (target, why) :: !reasons;
          residual := tgd :: !residual)
    m.Mapping.t_tgds;
  let statuses =
    Hashtbl.fold (fun rel st acc -> (rel, st) :: acc) status []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  (statuses, List.rev !local, List.rev !residual, List.rev !reasons)

let build ~key ~range ~shards (m : Mapping.t) =
  let status, local, residual, reasons = classify ~key m in
  { mapping = m; key; shards; range; status; local; residual; reasons }

let candidate_keys (m : Mapping.t) =
  List.sort_uniq String.compare
    (List.concat_map Schema.dim_names m.Mapping.source)

let make ?key ?(range = false) ~shards (m : Mapping.t) =
  if shards < 2 then
    Error (Printf.sprintf "shard count must be at least 2 (got %d)" shards)
  else
    match key with
    | Some k ->
        if List.mem k (candidate_keys m) then Ok (build ~key:k ~range ~shards m)
        else
          Error
            (Printf.sprintf
               "shard key %s is not a dimension of any source relation" k)
    | None -> (
        (* Choose the key that keeps the most tgds shard-local; break
           ties toward more partitioned relations, then toward the
           lexicographically smallest name — a deterministic choice. *)
        match candidate_keys m with
        | [] -> Error "no candidate shard key: sources have no dimensions"
        | ks ->
            let score p =
              (* prefer keys whose local tgds actually split their work
                 (partitioned or merged targets); a local tgd with a
                 replicated target is recomputed identically in every
                 shard, so it counts against the key *)
              let target_status tgd =
                List.assoc_opt (Tgd.target_relation tgd) p.status
              in
              let distributed =
                List.length
                  (List.filter
                     (fun tgd ->
                       match target_status tgd with
                       | Some (Partitioned _) | Some Merged -> true
                       | _ -> false)
                     p.local)
              in
              let replicated_derived =
                List.length
                  (List.filter
                     (fun tgd -> target_status tgd = Some Replicated)
                     p.local)
              in
              ( distributed,
                -replicated_derived,
                List.length p.local,
                List.length
                  (List.filter
                     (fun (_, s) ->
                       match s with Partitioned _ -> true | _ -> false)
                     p.status) )
            in
            let best =
              List.fold_left
                (fun acc k ->
                  let p = build ~key:k ~range ~shards m in
                  match acc with
                  | None -> Some p
                  | Some q -> if score p > score q then Some p else Some q)
                None ks
            in
            Ok (Option.get best))

(* ----- the report: a locality proof, or the cross-shard atoms ----- *)

let report t =
  let b = Buffer.create 256 in
  Printf.bprintf b "shard plan: key=%s shards=%d %s\n" t.key t.shards
    (if t.range then "range" else "hash");
  List.iter
    (fun (rel, st) -> Printf.bprintf b "  %-12s %s\n" rel (status_to_string st))
    t.status;
  List.iter
    (fun tgd ->
      Printf.bprintf b "  local    %s\n" (Tgd.to_string tgd))
    t.local;
  List.iter
    (fun tgd ->
      let target = Tgd.target_relation tgd in
      let why =
        match List.assoc_opt target t.reasons with Some w -> w | None -> ""
      in
      Printf.bprintf b "  residual %s — %s\n" (Tgd.to_string tgd) why)
    t.residual;
  Buffer.contents b

(* ----- partitioning the data ----- *)

(* Shard assignment for one key value.  Hash partitioning hashes the
   printed value (deterministic across runs and domains — never the
   physical representation); range partitioning sorts the distinct key
   values observed in the partitioned source relations and cuts them
   into [shards] near-equal contiguous runs. *)
let assignment t source =
  let hash v = Hashtbl.hash (Value.to_string v) mod t.shards in
  if not t.range then hash
  else begin
    let seen : (Value.t, unit) Hashtbl.t = Hashtbl.create 256 in
    List.iter
      (fun (s : Schema.t) ->
        match List.assoc_opt s.Schema.name t.status with
        | Some (Partitioned p) ->
            Instance.iter_facts source s.Schema.name (fun fact ->
                Hashtbl.replace seen fact.(p) ())
        | _ -> ())
      t.mapping.Mapping.source;
    let values =
      Hashtbl.fold (fun v () acc -> v :: acc) seen [] |> List.sort Value.compare
    in
    let n = List.length values in
    let tbl = Hashtbl.create (max 16 n) in
    List.iteri (fun i v -> Hashtbl.replace tbl v (i * t.shards / max 1 n)) values;
    fun v -> match Hashtbl.find_opt tbl v with Some s -> s | None -> hash v
  end

(* Split the source instance into [shards] instances: partitioned
   relations scatter on the key value, everything else is replicated
   into every shard.  The split runs at the batch level — per-shard row
   selections out of the (memoized) source batch, dictionaries shared,
   nothing re-encoded — and replicated relations are installed as the
   *same* shared batch in O(columns) per shard.  Shard instances are
   read-only inputs to the per-shard chases, which copy on Σst exactly
   like the unsharded run. *)
let split t source =
  let parts = Array.init t.shards (fun _ -> Instance.create ()) in
  let assign = assignment t source in
  (* Dictionary pools are deliberately unsynchronized, so batches
     installed into different shards must never share dictionary
     objects: per-shard chases append codes concurrently from their
     own domains.  Each shard gets one code-identical [Dict.copy] per
     *source dictionary object* — keyed by physical identity, not by
     domain: two source batches of the same domain may carry different
     dictionaries (installed under different pools), and a column's
     codes are only valid against a copy of its own dictionary.
     Columns that shared a dictionary in the source keep sharing the
     copy, so the shard preserves the source's code-sharing exactly. *)
  let part_dicts = Array.make t.shards [] in
  (* Materialize every source batch *before* the first [Dict.copy]:
     building a batch appends codes to the (shared, lazily grown) pool
     dictionaries, so a copy taken mid-way would be missing the codes
     of every batch encoded after it. *)
  List.iter
    (fun (s : Schema.t) ->
      match Instance.schema source s.Schema.name with
      | Some _ -> ignore (Instance.batch source s.Schema.name : Columnar.Batch.t)
      | None -> ())
    t.mapping.Mapping.source;
  let rebase i (s : Schema.t) b =
    let dicts =
      Array.init (Array.length s.Schema.dims) (fun j ->
          let orig = Columnar.Batch.dim_dict b j in
          match List.find_opt (fun (o, _) -> o == orig) part_dicts.(i) with
          | Some (_, d) -> d
          | None ->
              let d = Columnar.Dict.copy orig in
              part_dicts.(i) <- (orig, d) :: part_dicts.(i);
              d)
    in
    Columnar.Batch.with_dicts b dicts
  in
  List.iter
    (fun (s : Schema.t) ->
      let name = s.Schema.name in
      match Instance.schema source name with
      | None -> ()
      | Some _ -> (
          Array.iter (fun p -> Instance.add_relation p s) parts;
          match List.assoc_opt name t.status with
          | Some (Partitioned pos) ->
              let b = Instance.batch source name in
              let dict = Columnar.Batch.dim_dict b pos in
              let codes = Columnar.Batch.dim_codes b pos in
              (* decide each *code* once, then scatter row indexes *)
              let code_shard =
                Array.init (Columnar.Dict.size dict) (fun c ->
                    assign (Columnar.Dict.decode dict c))
              in
              let nrows = Columnar.Batch.nrows b in
              let counts = Array.make t.shards 0 in
              for r = 0 to nrows - 1 do
                let s = code_shard.(codes.(r)) in
                counts.(s) <- counts.(s) + 1
              done;
              let rows = Array.map (fun n -> Array.make n 0) counts in
              let fill = Array.make t.shards 0 in
              for r = 0 to nrows - 1 do
                let s = code_shard.(codes.(r)) in
                rows.(s).(fill.(s)) <- r;
                fill.(s) <- fill.(s) + 1
              done;
              Array.iteri
                (fun i idx ->
                  Instance.set_batch parts.(i) name
                    (rebase i s (Columnar.Batch.select b idx)))
                rows
          | _ ->
              let b = Instance.batch source name in
              Array.iteri (fun i p -> Instance.set_batch p name (rebase i s b)) parts))
    t.mapping.Mapping.source;
  parts
