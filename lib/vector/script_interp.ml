open Matrix

type env = (string, Frame.t) Hashtbl.t

let create_env () = Hashtbl.create 32
let bind env name frame = Hashtbl.replace env name frame
let frame env name = Hashtbl.find_opt env name

exception Interp_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Interp_error m)) fmt

let get env name =
  match frame env name with
  | Some f -> f
  | None -> fail "no frame %s" name

let run_stmt ~schema_lookup env stmt =
  match stmt with
  | Script.Copy { dst; src } -> bind env dst (get env src)
  | Script.Filter_rows { dst; src; conditions } ->
      let f = get env src in
      let checks =
        List.map (fun (col, v) -> (Frame.column f col, v)) conditions
      in
      bind env dst
        (Frame.filter_rows f (fun i ->
             List.for_all (fun (col, v) -> Value.equal col.(i) v) checks))
  | Script.Merge { dst; left; right; by } ->
      bind env dst (Frame_ops.merge ~by (get env left) (get env right))
  | Script.Merge_outer { dst; left; right; by } ->
      bind env dst (Frame_ops.merge_outer ~by (get env left) (get env right))
  | Script.Assign_col { frame = name; col; expr } ->
      let f = get env name in
      bind env name (Frame.add_column f col (Frame_ops.eval_col f expr))
  | Script.Select_cols { dst; src; cols } ->
      bind env dst (Frame.select (get env src) cols)
  | Script.Group_agg { dst; src; by; aggr; measure } ->
      bind env dst (Frame_ops.group_aggregate ~by ~aggr ~measure (get env src))
  | Script.Apply_fn { dst; src; fn; params } -> (
      let schema =
        match schema_lookup src with
        | Some s -> s
        | None -> fail "no schema for frame %s" src
      in
      match Frame_ops.apply_blackbox ~schema ~fn ~params (get env src) with
      | Ok result -> bind env dst result
      | Error msg -> fail "%s" msg)
  | Script.Const_frame { dst; cols; rows } ->
      let n = List.length rows in
      let columns =
        List.mapi
          (fun ci name ->
            let col = Array.make n Value.Null in
            List.iteri (fun ri row -> col.(ri) <- List.nth row ci) rows;
            (name, col))
          cols
      in
      bind env dst (Frame.create columns)

let run ~schema_lookup env script =
  try
    List.iter (run_stmt ~schema_lookup env) script;
    Ok ()
  with
  | Interp_error msg -> Error msg
  | Invalid_argument msg -> Error msg
