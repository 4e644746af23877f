type t = { name : string; steps : Step.t list }

let make ~name steps =
  let defined = Hashtbl.create 16 in
  let consumed = Hashtbl.create 16 in
  let outputs = ref 0 in
  let rec validate = function
    | [] -> Ok ()
    | step :: rest ->
        let sname = Step.name step in
        if Hashtbl.mem defined sname then
          Error (Printf.sprintf "flow %s: duplicate step %s" name sname)
        else begin
          let missing =
            List.filter (fun i -> not (Hashtbl.mem defined i)) (Step.inputs step)
          in
          if missing <> [] then
            Error
              (Printf.sprintf "flow %s: step %s consumes undefined stream(s) %s"
                 name sname
                 (String.concat ", " missing))
          else begin
            Hashtbl.replace defined sname ();
            List.iter (fun i -> Hashtbl.replace consumed i ()) (Step.inputs step);
            (match step with Step.Table_output _ -> incr outputs | _ -> ());
            validate rest
          end
        end
  in
  match validate steps with
  | Error _ as e -> e
  | Ok () ->
      if !outputs <> 1 then
        Error
          (Printf.sprintf "flow %s: expected exactly one output step, found %d"
             name !outputs)
      else
        let dangling =
          List.filter
            (fun s ->
              (match s with Step.Table_output _ -> false | _ -> true)
              && not (Hashtbl.mem consumed (Step.name s)))
            steps
        in
        if dangling <> [] then
          Error
            (Printf.sprintf "flow %s: unconsumed step(s) %s" name
               (String.concat ", " (List.map Step.name dangling)))
        else Ok { name; steps }

let output_cube t =
  match
    List.find_map
      (function Step.Table_output { cube; _ } -> Some cube | _ -> None)
      t.steps
  with
  | Some c -> c
  | None -> invalid_arg "Flow.output_cube: no output step"

let input_cubes t =
  List.filter_map
    (function Step.Table_input { cube; _ } -> Some cube | _ -> None)
    t.steps
