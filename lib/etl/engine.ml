open Matrix
module Term = Mappings.Term

type stats = {
  mutable rows_read : int;
  mutable rows_written : int;
  mutable steps_executed : int;
  mutable batches : int;
}

let empty_stats () =
  { rows_read = 0; rows_written = 0; steps_executed = 0; batches = 0 }

exception Etl_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Etl_error m)) fmt

type rowset = { fields : string list; rows : Value.t array list }

let field_index rowset =
  let tbl = Hashtbl.create 8 in
  List.iteri (fun i f -> Hashtbl.replace tbl f i) rowset.fields;
  tbl

let row_env index row field =
  match Hashtbl.find_opt index field with
  | Some i -> Some row.(i)
  | None -> None

let columns_of_schema schema =
  Schema.dim_names schema @ [ schema.Schema.measure_name ]

(* Rows in key order ({!Cube.to_alist}'s), read off the version's
   column view. *)
let rowset_of_cube cube =
  let v = Cube.view cube in
  {
    fields = columns_of_schema (Cube.schema cube);
    rows = Array.to_list (Array.map (Cube.row v) (Cube.key_order v));
  }

(* [rowset]'s rows as a fresh cube of [schema]. *)
let cube_of_rowset schema rowset =
  let cube = Cube.create schema in
  let index = field_index rowset in
  let positions =
    List.map
      (fun c ->
        match Hashtbl.find_opt index c with
        | Some i -> i
        | None -> fail "stream lacks field %s required by cube %s" c schema.Schema.name)
      (columns_of_schema schema)
  in
  let n = Schema.arity schema in
  List.iter
    (fun row ->
      let projected = List.map (fun i -> row.(i)) positions in
      let arr = Array.of_list projected in
      let key = Tuple.of_array (Array.sub arr 0 n) in
      Cube.add_strict cube key arr.(n))
    rowset.rows;
  cube

(* Chunked iteration: models the stream-like batching of an ETL engine
   and feeds the batch counter. *)
let iter_batches ~batch_size stats rows f =
  let rec loop = function
    | [] -> ()
    | rows ->
        let rec take k acc = function
          | rest when k = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | r :: rest -> take (k - 1) (r :: acc) rest
        in
        let batch, rest = take batch_size [] rows in
        stats.batches <- stats.batches + 1;
        List.iter f batch;
        loop rest
  in
  if rows <> [] then loop rows

let merge_fields keys left right =
  let clash c =
    (not (List.mem c keys)) && List.mem c left.fields && List.mem c right.fields
  in
  let left_out = List.map (fun c -> if clash c then c ^ "_x" else c) left.fields in
  let right_out =
    List.filter_map
      (fun c -> if List.mem c keys then None else Some (if clash c then c ^ "_y" else c))
      right.fields
  in
  (left_out @ right_out, clash)

let run_step ~batch_size ~storage ~schema_lookup env stats step =
  let get name =
    match Hashtbl.find_opt env name with
    | Some rs -> rs
    | None -> fail "no stream %s" name
  in
  let bind rs = Hashtbl.replace env (Step.name step) rs in
  stats.steps_executed <- stats.steps_executed + 1;
  match step with
  | Step.Table_input { cube; _ } ->
      let rs =
        match Registry.find storage cube with
        | Some c -> rowset_of_cube c
        | None -> (
            match schema_lookup cube with
            | Some schema -> { fields = columns_of_schema schema; rows = [] }
            | None -> fail "unknown cube %s" cube)
      in
      stats.rows_read <- stats.rows_read + List.length rs.rows;
      bind rs
  | Step.Generate_rows { fields; rows; _ } ->
      bind { fields; rows = List.map Array.of_list rows }
  | Step.Filter_rows { input; conditions; _ } ->
      let rs = get input in
      let index = field_index rs in
      let checks =
        List.map
          (fun (field, v) ->
            match Hashtbl.find_opt index field with
            | Some i -> (i, v)
            | None -> fail "filter field %s missing" field)
          conditions
      in
      let out = ref [] in
      iter_batches ~batch_size stats rs.rows (fun row ->
          if List.for_all (fun (i, v) -> Value.equal row.(i) v) checks then
            out := row :: !out);
      bind { rs with rows = List.rev !out }
  | Step.Merge_join { left; right; keys; join; _ } ->
      let l = get left and r = get right in
      let fields, _ = merge_fields keys l r in
      let l_index = field_index l and r_index = field_index r in
      let key_positions idx =
        List.map
          (fun k ->
            match Hashtbl.find_opt idx k with
            | Some i -> i
            | None -> fail "merge key %s missing" k)
          keys
      in
      let lk = key_positions l_index and rk = key_positions r_index in
      let key_of positions row =
        let vals = List.map (fun i -> row.(i)) positions in
        if List.exists Value.is_null vals then None
        else Some (Tuple.of_list vals)
      in
      let index : Value.t array list Tuple.Table.t = Tuple.Table.create 256 in
      List.iter
        (fun row ->
          match key_of lk row with
          | None -> ()
          | Some k ->
              let prev = Option.value ~default:[] (Tuple.Table.find_opt index k) in
              Tuple.Table.replace index k (row :: prev))
        l.rows;
      let r_keep =
        List.filteri (fun i _ -> not (List.mem i rk)) (List.mapi (fun i _ -> i) r.fields)
      in
      let l_width = List.length l.fields in
      let matched_left : unit Tuple.Table.t = Tuple.Table.create 256 in
      let out = ref [] in
      iter_batches ~batch_size stats r.rows (fun r_row ->
          let extra = List.map (fun i -> r_row.(i)) r_keep in
          match key_of rk r_row with
          | None ->
              if join = `Full then begin
                (* keep the unmatched right row; keys land in the
                   left key positions of the merged layout *)
                let l_part = Array.make l_width Value.Null in
                List.iteri (fun ki lp -> l_part.(lp) <- r_row.(List.nth rk ki)) lk;
                out := Array.append l_part (Array.of_list extra) :: !out
              end
          | Some k -> (
              match Tuple.Table.find_opt index k with
              | Some matches ->
                  Tuple.Table.replace matched_left k ();
                  List.iter
                    (fun l_row ->
                      out := Array.append l_row (Array.of_list extra) :: !out)
                    (List.rev matches)
              | None ->
                  if join = `Full then begin
                    let l_part = Array.make l_width Value.Null in
                    List.iteri
                      (fun ki lp -> l_part.(lp) <- r_row.(List.nth rk ki))
                      lk;
                    out := Array.append l_part (Array.of_list extra) :: !out
                  end));
      if join = `Full then begin
        let r_pad = Array.make (List.length r_keep) Value.Null in
        List.iter
          (fun l_row ->
            match key_of lk l_row with
            | Some k when Tuple.Table.mem matched_left k -> ()
            | _ -> out := Array.append l_row r_pad :: !out)
          l.rows
      end;
      bind { fields; rows = List.rev !out }
  | Step.Sort { input; _ } ->
      let rs = get input in
      bind
        {
          rs with
          rows =
            List.sort
              (fun a b -> Tuple.compare (Tuple.of_array a) (Tuple.of_array b))
              rs.rows;
        }
  | Step.Calculator { input; outputs; _ } ->
      let rs = get input in
      let index = field_index rs in
      let new_fields =
        List.filter (fun (f, _) -> not (List.mem f rs.fields)) outputs
      in
      let fields = rs.fields @ List.map fst new_fields in
      let out = ref [] in
      iter_batches ~batch_size stats rs.rows (fun row ->
          let env_fn = row_env index row in
          let row' =
            Array.append row
              (Array.of_list
                 (List.map
                    (fun (_, term) ->
                      Option.value ~default:Value.Null (Term.eval env_fn term))
                    new_fields))
          in
          (* Overwrite outputs naming existing fields in place. *)
          List.iter
            (fun (f, term) ->
              match Hashtbl.find_opt index f with
              | Some i ->
                  row'.(i) <-
                    Option.value ~default:Value.Null (Term.eval env_fn term)
              | None -> ())
            outputs;
          out := row' :: !out);
      bind { fields; rows = List.rev !out }
  | Step.Group_by { input; keys; aggr; measure; _ } ->
      let rs = get input in
      let index = field_index rs in
      let groups : float list ref Tuple.Table.t = Tuple.Table.create 64 in
      let order = ref [] in
      List.iter
        (fun row ->
          let env_fn = row_env index row in
          let key_vals = List.map (fun (_, t) -> Term.eval env_fn t) keys in
          if List.for_all Option.is_some key_vals then
            let key = Tuple.of_list (List.map Option.get key_vals) in
            match Option.bind (Term.eval env_fn measure) Value.to_float with
            | None -> ()
            | Some m -> (
                match Tuple.Table.find_opt groups key with
                | Some bag -> bag := m :: !bag
                | None ->
                    Tuple.Table.replace groups key (ref [ m ]);
                    order := key :: !order))
        rs.rows;
      let rows =
        List.rev_map
          (fun key ->
            let bag = List.rev !(Tuple.Table.find groups key) in
            Array.of_list
              (Tuple.to_list key
              @ [ Value.of_float (Stats.Aggregate.apply aggr bag) ]))
          !order
      in
      bind { fields = List.map fst keys @ [ "value" ]; rows }
  | Step.Table_function { input; fn; params; schema_of; _ } -> (
      let rs = get input in
      let schema =
        match schema_lookup schema_of with
        | Some s -> s
        | None -> fail "no schema for %s" schema_of
      in
      let op =
        match Ops.Blackbox.find fn with
        | Some op -> op
        | None -> fail "unknown user-defined step %s" fn
      in
      match Ops.Blackbox.apply_cube op ~params (cube_of_rowset schema rs) with
      | Error msg -> fail "%s" msg
      | Ok result -> bind (rowset_of_cube result))
  | Step.Select_fields { input; fields; _ } ->
      let rs = get input in
      let index = field_index rs in
      let positions =
        List.map
          (fun (src, _) ->
            match Hashtbl.find_opt index src with
            | Some i -> i
            | None -> fail "select: no field %s" src)
          fields
      in
      bind
        {
          fields = List.map snd fields;
          rows =
            List.map
              (fun row -> Array.of_list (List.map (fun i -> row.(i)) positions))
              rs.rows;
        }
  | Step.Table_output { input; cube; _ } ->
      let rs = get input in
      let schema =
        match schema_lookup cube with
        | Some s -> s
        | None -> fail "no schema for output cube %s" cube
      in
      stats.rows_written <- stats.rows_written + List.length rs.rows;
      Registry.add storage Registry.Derived (cube_of_rowset schema rs)

(* Executes the steps in order, writing the output cube into [storage]
   as a fresh derived cube.  [batch_size] is the stream granularity:
   semantics-neutral, it models the paper's stream-like architecture and
   is reported in [stats.batches]. *)
let run_flow ?(batch_size = 1024) ~storage ~schema_lookup flow stats =
  let env : (string, rowset) Hashtbl.t = Hashtbl.create 16 in
  try
    List.iter
      (run_step ~batch_size ~storage ~schema_lookup env stats)
      flow.Flow.steps;
    Ok ()
  with
  | Etl_error msg -> Error (Printf.sprintf "flow %s: %s" flow.Flow.name msg)
  | Cube.Functionality_violation { cube; key } ->
      Error
        (Printf.sprintf "flow %s: functionality violation in %s at %s"
           flow.Flow.name cube (Tuple.to_string key))

let run_job ?batch_size ~storage ~schema_lookup job =
  let stats = empty_stats () in
  let rec loop = function
    | [] -> Ok stats
    | flow :: rest -> (
        match run_flow ?batch_size ~storage ~schema_lookup flow stats with
        | Ok () -> loop rest
        | Error _ as e -> e)
  in
  match loop job.Job.flows with
  | Ok stats -> Ok stats
  | Error msg -> Error msg
