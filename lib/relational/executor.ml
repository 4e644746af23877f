open Matrix

type schema_lookup = string -> Schema.t option

exception Exec_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Exec_error m)) fmt

let columns_of_schema schema =
  Schema.dim_names schema @ [ schema.Schema.measure_name ]

let schema_exn lookup table =
  match lookup table with
  | Some s -> s
  | None -> fail "no schema for table %s" table

(* ----- layouts: which (alias, column) lives at which row offset ----- *)

let rec layout lookup = function
  | Plan.One_row -> []
  | Plan.Scan { table; alias } ->
      List.map (fun c -> (alias, c)) (columns_of_schema (schema_exn lookup table))
  | Plan.Hash_join { build; probe; _ } -> layout lookup build @ layout lookup probe
  | Plan.Full_outer_hash_join { build; probe; _ } ->
      layout lookup build @ layout lookup probe
  | Plan.Filter { input; _ } -> layout lookup input
  | Plan.Project { exprs; _ } -> List.map (fun (_, n) -> ("", n)) exprs
  | Plan.Aggregate { keys; measure_name; _ } ->
      List.map (fun (_, n) -> ("", n)) keys @ [ ("", measure_name) ]
  | Plan.Table_fn_scan { table; _ } ->
      List.map (fun c -> ("", c)) (columns_of_schema (schema_exn lookup table))

type resolver = { index : string * string -> int option }

(* Lookup is case-insensitive: printed SQL (and therefore re-parsed
   SQL) carries upper-cased identifiers. *)
let resolver_of_layout lay =
  let exact = Hashtbl.create 16 and by_column = Hashtbl.create 16 in
  let norm = String.lowercase_ascii in
  List.iteri
    (fun i (alias, column) ->
      Hashtbl.replace exact (norm alias, norm column) i;
      if not (Hashtbl.mem by_column (norm column)) then
        Hashtbl.replace by_column (norm column) i)
    lay;
  {
    index =
      (fun (alias, column) ->
        if alias = "" then Hashtbl.find_opt by_column (norm column)
        else Hashtbl.find_opt exact (norm alias, norm column));
  }

(* ----- expression evaluation ----- *)

let shift_value amount = function
  | Value.Period p -> Value.Period (Calendar.Period.shift p amount)
  | Value.Date d -> Value.Date (Calendar.Date.add_days d amount)
  | Value.(Null | Bool _ | Int _ | Float _ | String _) -> Value.Null

let rec eval_expr resolver row expr =
  match expr with
  | Sql_ast.Col { alias; column } -> (
      match resolver.index (alias, column) with
      | Some i -> row.(i)
      | None -> fail "unknown column %s.%s" alias column)
  | Sql_ast.Lit v -> v
  | Sql_ast.Binop (op, a, b) -> (
      let va = eval_expr resolver row a and vb = eval_expr resolver row b in
      (* temporal +/- integer is period/date arithmetic, as in SQL
         dialects with date + int; needed so re-parsed scripts (where
         Period_add prints as +) stay execution-equivalent *)
      match (op, va, vb) with
      | ( (Ops.Binop.Add | Ops.Binop.Sub),
          (Value.Period _ | Value.Date _),
          (Value.Int _ | Value.Float _) ) ->
          let k =
            match Value.to_int vb with Some k -> k | None -> 0
          in
          let k = if op = Ops.Binop.Sub then -k else k in
          shift_value k va
      | Ops.Binop.Add, (Value.Int _ | Value.Float _), (Value.Period _ | Value.Date _)
        ->
          let k = match Value.to_int va with Some k -> k | None -> 0 in
          shift_value k vb
      | _ -> Ops.Binop.eval_value op va vb)
  | Sql_ast.Neg a -> (
      match Value.to_float (eval_expr resolver row a) with
      | Some f -> Value.of_float (-.f)
      | None -> Value.Null)
  | Sql_ast.Scalar_call (fn, params, a) -> (
      match Ops.Scalar_fn.find fn with
      | Some f -> Ops.Scalar_fn.apply_value f ~params (eval_expr resolver row a)
      | None -> fail "unknown scalar function %s" fn)
  | Sql_ast.Dim_call (fn, a) -> (
      match Ops.Dim_fn.find fn with
      | Some f -> (
          match Ops.Dim_fn.apply f (eval_expr resolver row a) with
          | Some v -> v
          | None -> Value.Null)
      | None -> fail "unknown dimension function %s" fn)
  | Sql_ast.Period_add (a, k) -> shift_value k (eval_expr resolver row a)
  | Sql_ast.Agg_call _ -> fail "aggregate call outside GROUP BY context"
  | Sql_ast.Coalesce (a, b) -> (
      match eval_expr resolver row a with
      | Value.Null -> eval_expr resolver row b
      | v -> v)

(* ----- plan execution ----- *)

(* Views (the Section 6 reformulation) are selects evaluated on demand:
   the first scan of a view compiles, runs and memoizes it; later scans
   reuse the materialized rows.  INSERTs invalidate dependent caches
   (see [invalidate_views]). *)
type view_env = {
  view_defs : (string, Sql_ast.select) Hashtbl.t;
  view_rows : (string, Value.t array list) Hashtbl.t;
}

let fresh_views () = { view_defs = Hashtbl.create 8; view_rows = Hashtbl.create 8 }

(* Base tables a select reads directly (view names included). *)
let direct_tables_of_select (s : Sql_ast.select) =
  match s.Sql_ast.from with
  | Sql_ast.Tables tables -> List.map fst tables
  | Sql_ast.From_table_fn { table; _ } -> [ table ]
  | Sql_ast.Full_outer_join { left = lt, _; right = rt, _; _ } -> [ lt; rt ]

(* Drop every memoized view that (transitively, through other view
   definitions) reads [table]. *)
let invalidate_views views table =
  let rec depends seen name =
    (not (List.mem name seen))
    && (name = table
       || (match Hashtbl.find_opt views.view_defs name with
          | None -> false
          | Some s ->
              List.exists (depends (name :: seen)) (direct_tables_of_select s)))
  in
  let stale =
    Hashtbl.fold
      (fun name _ acc -> if depends [] name then name :: acc else acc)
      views.view_rows []
  in
  Obs.count ~n:(List.length stale) "executor.view_invalidations";
  List.iter (Hashtbl.remove views.view_rows) stale

(* ----- vectorized fast paths over encoded base-table columns ----- *)

(* A plan node the batch kernels can read directly: a scan of a base
   table (views fall back to the generic row path — their memoized
   rows have no column cache to hang dictionaries on). *)
let base_scan db = function
  | Plan.Scan { table; _ } -> Database.find db table
  | _ -> None

(* The column a plain-column expression reads, when it is one of the
   scanned table's columns. *)
let column_of res t = function
  | Sql_ast.Col { alias; column } -> (
      match res.index (alias, column) with
      | Some i when i < Table.width t -> Some i
      | _ -> None)
  | _ -> None

let all_some xs =
  if List.for_all Option.is_some xs then Some (List.map Option.get xs)
  else None

(* Positions of plain-column key expressions in a scan's layout; [None]
   as soon as any key is computed (the generic path must evaluate it
   per row). *)
let col_positions lookup scan t keys =
  let res = resolver_of_layout (layout lookup scan) in
  all_some (List.map (column_of res t) keys)

(* Column [pos] of [t] re-coded: per row, [f dict c] of the row's code
   [c] in the column's dictionary, with [f] evaluated once per distinct
   code rather than once per row. *)
let recode t pos f =
  let dict, codes = Table.column_codes t pos in
  let x = Array.init (Dict.size dict) (f dict) in
  Array.map (fun c -> x.(c)) codes

(* SQL null keys never join or group: their code becomes -1, decided in
   the column's own dictionary before any translation. *)
let unless_null f dict c = if Dict.is_null dict c then -1 else f dict c

(* Dictionary-encoded int-key hash join between two base tables: key
   columns compare by code (probe codes translated into the build
   dict's space once per column), null keys masked to -1 so they never
   join.  Row-for-row identical to the generic path, including output
   order: probe rows in insertion order, each paired with its matching
   build rows in insertion order. *)
let vectorized_hash_join lookup tb tp build probe build_keys probe_keys =
  match
    (col_positions lookup build tb build_keys,
     col_positions lookup probe tp probe_keys)
  with
  | Some bpos, Some ppos when List.length bpos = List.length ppos ->
      Obs.count "executor.vectorized_joins";
      let brows = Table.rows_array tb and prows = Table.rows_array tp in
      let nbuild = Array.length brows and nprobe = Array.length prows in
      let build_cols, probe_cols, radices =
        List.fold_right2
          (fun bp pp (bs, ps, rs) ->
            let db = fst (Table.column_codes tb bp) in
            (* codes in the build dictionary's space, -1 where it
               lacks the value *)
            let in_build t pos =
              let x = Dict.xlate (fst (Table.column_codes t pos)) db in
              recode t pos
                (unless_null (fun _ c ->
                     match x with Some x -> x.(c) | None -> c))
            in
            ( in_build tb bp :: bs,
              in_build tp pp :: ps,
              Dict.size db :: rs ))
          bpos ppos ([], [], [])
      in
      let build_keys, probe_keys =
        Kernels.joined_keys
          ~build_cols:(Array.of_list build_cols)
          ~probe_cols:(Array.of_list probe_cols)
          ~nbuild ~nprobe (Array.of_list radices)
      in
      let tbl : (int, int list) Hashtbl.t = Hashtbl.create (max 16 nbuild) in
      (* Reverse fill so each bucket lists build rows in insertion
         order, the order the generic path emits them in. *)
      for br = nbuild - 1 downto 0 do
        let k = build_keys.(br) in
        if k >= 0 then
          Hashtbl.replace tbl k
            (br :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
      done;
      let out = ref [] in
      for pr = 0 to nprobe - 1 do
        let k = probe_keys.(pr) in
        if k >= 0 then
          List.iter
            (fun br -> out := Array.append brows.(br) prows.(pr) :: !out)
            (Option.value ~default:[] (Hashtbl.find_opt tbl k))
      done;
      Some (List.rev !out)
  | _ -> None

(* A group key the aggregate kernel reads off one column's codes: the
   column itself, or a dimension function of it ([QUARTER(D)]). *)
type key_source = { pos : int; fn : Ops.Dim_fn.t option }

let key_source res t = function
  | Sql_ast.Dim_call (name, arg) -> (
      match (Ops.Dim_fn.find name, column_of res t arg) with
      | Some fn, Some pos -> Some { pos; fn = Some fn }
      | _ -> None)
  | e -> Option.map (fun pos -> { pos; fn = None }) (column_of res t e)

let key_value t r { pos; fn } =
  let x = Table.value t r pos in
  match fn with
  | None -> x
  | Some fn -> Option.value ~default:Value.Null (Ops.Dim_fn.apply fn x)

(* Per row, the key's code in a space of its own (-1: a [Null] key),
   and that space's radix. *)
let key_column t { pos; fn } =
  match fn with
  | None ->
      ( recode t pos (unless_null (fun _ c -> c)),
        Dict.size (fst (Table.column_codes t pos)) )
  | Some fn ->
      let out = Dict.create () in
      let codes =
        recode t pos (fun dict c ->
            match Ops.Dim_fn.apply fn (Dict.decode dict c) with
            | Some v -> Dict.encode out v
            | None -> -1)
      in
      (codes, Dict.size out)

(* Grouped aggregation over a base table, vectorized: group keys —
   plain columns or dimension functions of columns — compare by code
   and groups form in one pass over the rows in load order.  The result
   replays the generic path, which sorts the whole table by
   [Tuple.compare] first: groups in first-seen order over the sorted
   rows (that is, ordered by their least row), each bag in sorted-row
   order, equal rows in load order, rows with a null key or
   non-numeric measure skipped.  The participating rows are put in
   that order once: a stable counting sort by column-0 rank, then a
   comparison sort by the later columns' ranks inside each run that
   ties on column 0 (a column's ranks are built only when every column
   before it ties somewhere), then a stable bucket pass by group.  Bag
   order is canonical, so float sums do not depend on load order. *)
let vectorized_aggregate lookup t input keys measure aggr =
  let res = resolver_of_layout (layout lookup input) in
  match
    (all_some (List.map (fun (e, _) -> key_source res t e) keys),
     column_of res t measure)
  with
  | None, _ | _, None -> None
  | Some sources, Some mpos ->
      Obs.count "executor.vectorized_aggregates";
      let n = Table.row_count t in
      let key_cols = Array.of_list (List.map (key_column t) sources) in
      let nkeys = Array.length key_cols in
      (* The participating rows, in load order, and their measures. *)
      let sel = Array.make n 0 and mf = Array.make n 0. in
      let nsel = ref 0 in
      for r = 0 to n - 1 do
        let k = ref 0 in
        while !k < nkeys && (fst key_cols.(!k)).(r) >= 0 do incr k done;
        if !k = nkeys && Kernels.read_float mf r (Table.value t r mpos) then begin
          sel.(!nsel) <- r;
          incr nsel
        end
      done;
      let nsel = !nsel in
      let keys =
        Kernels.dense_keys ~nrows:n (Array.map fst key_cols)
          (Array.map snd key_cols)
      in
      let { Kernels.gids; n_groups = ng; _ } =
        Kernels.group (Array.init nsel (fun j -> keys.(sel.(j))))
      in
      (* Canonical order, as positions into [sel]: a column's ranks
         are built only when some run of ties needs them, so the
         measure column is rarely encoded. *)
      let ranks =
        Array.init (Table.width t) (fun pos ->
            lazy
              (let dict, codes = Table.column_codes t pos in
               (codes, Kernels.ranks dict)))
      in
      let sorted, compares = Kernels.sort_rows ranks (Array.sub sel 0 nsel) in
      Obs.count ~n:compares "executor.order_compares";
      (* Groups numbered in the order of their least row, which
         represents the group's key, and each group's measures gathered
         in sorted order. *)
      let ord = Array.make ng (-1) and rep = Array.make ng 0 and next = ref 0 in
      let offsets = Array.make (ng + 1) 0 in
      Array.iter
        (fun j ->
          let g = gids.(j) in
          if ord.(g) < 0 then begin
            ord.(g) <- !next;
            rep.(!next) <- sel.(j);
            incr next
          end;
          offsets.(ord.(g) + 1) <- offsets.(ord.(g) + 1) + 1)
        sorted;
      for o = 1 to ng do
        offsets.(o) <- offsets.(o) + offsets.(o - 1)
      done;
      let data = Array.make nsel 0. in
      let cursor = Array.sub offsets 0 ng in
      Array.iter
        (fun j ->
          let o = ord.(gids.(j)) in
          data.(cursor.(o)) <- mf.(sel.(j));
          cursor.(o) <- cursor.(o) + 1)
        sorted;
      Some
        (List.init ng (fun o ->
             let off = offsets.(o) in
             let result =
               Stats.Aggregate.apply_slice aggr data ~off
                 ~len:(offsets.(o + 1) - off)
             in
             Array.of_list
               (List.map (key_value t rep.(o)) sources
               @ [ Value.of_float result ])))

let rec execute db lookup (views : view_env) plan : Value.t array list =
  match plan with
  | Plan.One_row -> [ [||] ]
  | Plan.Scan { table; _ } -> (
      match Database.find db table with
      | Some t -> Table.rows t
      | None -> (
          match Hashtbl.find_opt views.view_defs table with
          | Some select -> rows_of_view db lookup views table select
          | None -> []))
  | Plan.Hash_join { build; probe; build_keys; probe_keys } -> (
      let fast =
        match (base_scan db build, base_scan db probe) with
        | Some tb, Some tp ->
            vectorized_hash_join lookup tb tp build probe build_keys probe_keys
        | _ -> None
      in
      match fast with
      | Some rows -> rows
      | None ->
          let build_rows = execute db lookup views build in
          let probe_rows = execute db lookup views probe in
          let build_res = resolver_of_layout (layout lookup build) in
          let probe_res = resolver_of_layout (layout lookup probe) in
          let key resolver keys row =
            let vals = List.map (eval_expr resolver row) keys in
            if List.exists Value.is_null vals then None
            else Some (Tuple.of_list vals)
          in
          let index : Value.t array list Tuple.Table.t =
            Tuple.Table.create 256
          in
          List.iter
            (fun row ->
              match key build_res build_keys row with
              | None -> ()
              | Some k ->
                  let prev =
                    Option.value ~default:[] (Tuple.Table.find_opt index k)
                  in
                  Tuple.Table.replace index k (row :: prev))
            build_rows;
          List.concat_map
            (fun probe_row ->
              match key probe_res probe_keys probe_row with
              | None -> []
              | Some k ->
                  List.rev_map
                    (fun build_row -> Array.append build_row probe_row)
                    (Option.value ~default:[] (Tuple.Table.find_opt index k)))
            probe_rows)
  | Plan.Full_outer_hash_join { build; probe; build_keys; probe_keys } ->
      let build_rows = execute db lookup views build in
      let probe_rows = execute db lookup views probe in
      let build_lay = layout lookup build and probe_lay = layout lookup probe in
      let build_res = resolver_of_layout build_lay in
      let probe_res = resolver_of_layout probe_lay in
      let build_width = List.length build_lay in
      let probe_width = List.length probe_lay in
      let key resolver keys row =
        let vals = List.map (eval_expr resolver row) keys in
        if List.exists Value.is_null vals then None
        else Some (Tuple.of_list vals)
      in
      let index : Value.t array list Tuple.Table.t = Tuple.Table.create 256 in
      let matched_build : unit Tuple.Table.t = Tuple.Table.create 256 in
      List.iter
        (fun row ->
          match key build_res build_keys row with
          | None -> ()
          | Some k ->
              let prev = Option.value ~default:[] (Tuple.Table.find_opt index k) in
              Tuple.Table.replace index k (row :: prev))
        build_rows;
      let probe_side =
        List.concat_map
          (fun probe_row ->
            match key probe_res probe_keys probe_row with
            | None ->
                [ Array.append (Array.make build_width Value.Null) probe_row ]
            | Some k -> (
                match Tuple.Table.find_opt index k with
                | Some matches ->
                    Tuple.Table.replace matched_build k ();
                    List.rev_map
                      (fun build_row -> Array.append build_row probe_row)
                      matches
                | None ->
                    [ Array.append (Array.make build_width Value.Null) probe_row ]))
          probe_rows
      in
      let build_only =
        List.filter_map
          (fun build_row ->
            match key build_res build_keys build_row with
            | Some k when Tuple.Table.mem matched_build k -> None
            | _ ->
                Some (Array.append build_row (Array.make probe_width Value.Null)))
          build_rows
      in
      probe_side @ build_only
  | Plan.Filter { input; equalities } ->
      let res = resolver_of_layout (layout lookup input) in
      List.filter
        (fun row ->
          List.for_all
            (fun (a, b) ->
              let va = eval_expr res row a and vb = eval_expr res row b in
              (not (Value.is_null va)) && (not (Value.is_null vb))
              && Value.equal va vb)
            equalities)
        (execute db lookup views input)
  | Plan.Project { input; exprs } ->
      let res = resolver_of_layout (layout lookup input) in
      List.map
        (fun row ->
          Array.of_list (List.map (fun (e, _) -> eval_expr res row e) exprs))
        (execute db lookup views input)
  | Plan.Aggregate { input; keys; aggr; measure; measure_name = _ } -> (
      let fast =
        match base_scan db input with
        | Some t -> vectorized_aggregate lookup t input keys measure aggr
        | None -> None
      in
      match fast with
      | Some rows -> rows
      | None ->
      let res = resolver_of_layout (layout lookup input) in
      let rows =
        List.sort
          (fun a b -> Tuple.compare (Tuple.of_array a) (Tuple.of_array b))
          (execute db lookup views input)
      in
      let groups : float list ref Tuple.Table.t = Tuple.Table.create 64 in
      let order = ref [] in
      List.iter
        (fun row ->
          let key_vals = List.map (fun (e, _) -> eval_expr res row e) keys in
          if not (List.exists Value.is_null key_vals) then
            let key = Tuple.of_list key_vals in
            match Value.to_float (eval_expr res row measure) with
            | None -> ()
            | Some m -> (
                match Tuple.Table.find_opt groups key with
                | Some bag -> bag := m :: !bag
                | None ->
                    Tuple.Table.replace groups key (ref [ m ]);
                    order := key :: !order))
        rows;
      List.rev_map
        (fun key ->
          let bag = List.rev !(Tuple.Table.find groups key) in
          let result = Stats.Aggregate.apply aggr bag in
          Array.of_list (Tuple.to_list key @ [ Value.of_float result ]))
        !order)
  | Plan.Table_fn_scan { fn; params; table } -> (
      let schema = schema_exn lookup table in
      let source =
        match Database.find db table with
        | Some t -> Table.to_cube schema t
        | None -> (
            match Hashtbl.find_opt views.view_defs table with
            | Some select ->
                let rows = rows_of_view db lookup views table select in
                let cube = Cube.create schema in
                let n = Schema.arity schema in
                List.iter
                  (fun row ->
                    let key = Tuple.of_array (Array.sub row 0 n) in
                    Cube.add_strict cube key row.(n))
                  rows;
                cube
            | None -> Cube.create schema)
      in
      let op =
        match Ops.Blackbox.find fn with
        | Some op -> op
        | None -> fail "unknown table function %s" fn
      in
      match Ops.Blackbox.apply_cube op ~params source with
      | Error msg -> fail "%s" msg
      | Ok result ->
          List.map (fun (k, v) -> Tuple.append k v) (Cube.to_alist result))

and rows_of_view db lookup views name select =
  match Hashtbl.find_opt views.view_rows name with
  | Some rows ->
      Obs.count "executor.view_memo_hits";
      rows
  | None ->
      Obs.count "executor.view_builds";
      let rows = execute db lookup views (plan_of_select_exn lookup select) in
      Hashtbl.replace views.view_rows name rows;
      rows

(* ----- SELECT compilation ----- *)

and plan_of_select_exn _lookup (s : Sql_ast.select) =
  let base =
    match s.Sql_ast.from with
    | Sql_ast.From_table_fn { fn; params; table } ->
        Plan.Table_fn_scan { fn; params; table }
    | Sql_ast.Full_outer_join { left = lt, la; right = rt, ra; keys } ->
        Plan.Full_outer_hash_join
          {
            build = Plan.Scan { table = lt; alias = la };
            probe = Plan.Scan { table = rt; alias = ra };
            build_keys =
              List.map (fun k -> Sql_ast.Col { alias = la; column = k }) keys;
            probe_keys =
              List.map (fun k -> Sql_ast.Col { alias = ra; column = k }) keys;
          }
    | Sql_ast.Tables [] -> Plan.One_row
    | Sql_ast.Tables tables ->
        let consumed = Hashtbl.create 8 in
        let joined, aliases =
          List.fold_left
            (fun (acc, aliases) (table, alias) ->
              let scan = Plan.Scan { table; alias } in
              match acc with
              | None -> (Some scan, [ alias ])
              | Some left ->
                  (* Equalities linking the accumulated aliases to the
                     new one become hash-join keys. *)
                  let keys =
                    List.filteri
                      (fun i (a, b) ->
                        if Hashtbl.mem consumed i then false
                        else
                          let aa = Sql_ast.expr_aliases a in
                          let ab = Sql_ast.expr_aliases b in
                          let subset xs ys = List.for_all (fun x -> List.mem x ys) xs in
                          (subset aa aliases && subset ab [ alias ])
                          || (subset ab aliases && subset aa [ alias ]))
                      s.Sql_ast.where
                  in
                  (* Mark them consumed and orient build/probe sides. *)
                  List.iteri
                    (fun i pair ->
                      if List.memq pair keys then Hashtbl.replace consumed i ())
                    s.Sql_ast.where;
                  let build_keys, probe_keys =
                    List.split
                      (List.map
                         (fun (a, b) ->
                           let aa = Sql_ast.expr_aliases a in
                           if List.for_all (fun x -> List.mem x aliases) aa
                           then (a, b)
                           else (b, a))
                         keys)
                  in
                  ( Some
                      (Plan.Hash_join
                         { build = left; probe = scan; build_keys; probe_keys }),
                    alias :: aliases ))
            (None, []) tables
        in
        ignore aliases;
        let joined = Option.get joined in
        let residual =
          List.filteri (fun i _ -> not (Hashtbl.mem consumed i)) s.Sql_ast.where
        in
        if residual = [] then joined
        else Plan.Filter { input = joined; equalities = residual }
  in
  (* Aggregate or plain projection on top. *)
  let aggregates =
    List.filter (fun (e, _) -> Sql_ast.expr_is_aggregate e) s.Sql_ast.projections
  in
  match aggregates with
  | [] ->
      if s.Sql_ast.group_by <> [] then fail "GROUP BY without an aggregate";
      Plan.Project { input = base; exprs = s.Sql_ast.projections }
  | [ (Sql_ast.Agg_call (aggr, measure), measure_name) ] ->
      let keys =
        List.filter
          (fun (e, _) -> not (Sql_ast.expr_is_aggregate e))
          s.Sql_ast.projections
      in
      Plan.Aggregate { input = base; keys; aggr; measure; measure_name }
  | _ -> fail "unsupported aggregate projection shape"

let wrap f = try Ok (f ()) with Exec_error msg -> Error msg

let no_views : view_env = fresh_views ()

let plan_of_select lookup s = wrap (fun () -> plan_of_select_exn lookup s)

let rows_of_select db lookup s =
  wrap (fun () -> execute db lookup no_views (plan_of_select_exn lookup s))

let run_insert_with_views db lookup views (i : Sql_ast.insert) =
  let rows =
    execute db lookup views (plan_of_select_exn lookup i.Sql_ast.select)
  in
  let table =
    match Database.find db i.Sql_ast.table with
    | Some t -> t
    | None ->
        Database.create_table db ~name:i.Sql_ast.table ~columns:i.Sql_ast.columns
  in
  List.iter (Table.insert table) rows;
  List.length rows

let run_statements db lookup statements =
  let views = fresh_views () in
  let rec loop total = function
    | [] -> Ok total
    | Sql_ast.Create_view { name; select; _ } :: rest ->
        Hashtbl.replace views.view_defs name select;
        Hashtbl.remove views.view_rows name;
        loop total rest
    | Sql_ast.Insert insert :: rest -> (
        match wrap (fun () -> run_insert_with_views db lookup views insert) with
        | Ok n ->
            (* The inserted-into table may feed later view scans. *)
            invalidate_views views insert.Sql_ast.table;
            loop (total + n) rest
        | Error msg ->
            Error
              (Printf.sprintf "in INSERT INTO %s: %s" insert.Sql_ast.table msg))
  in
  loop 0 statements

let run_mapping ?(views = `None) db mapping =
  match Sql_gen.statements_of_mapping ~views mapping with
  | Error msg -> Error msg
  | Ok statements ->
      run_statements db (Mappings.Mapping.target_schema mapping) statements
