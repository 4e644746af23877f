(* The whole catalog is written into one buffer: [tag buf name body]
   writes the open tag, runs [body] to write the element's content,
   then writes the close tag, so no element's text is ever copied into
   its parent's. *)

let add_escaped_char buf = function
  | '<' -> Buffer.add_string buf "&lt;"
  | '>' -> Buffer.add_string buf "&gt;"
  | '&' -> Buffer.add_string buf "&amp;"
  | '"' -> Buffer.add_string buf "&quot;"
  | '\'' -> Buffer.add_string buf "&apos;"
  | c -> Buffer.add_char buf c

(* Whether [s] holds no markup character from [i] on. *)
let rec plain s i =
  i = String.length s
  || (match s.[i] with '<' | '>' | '&' | '"' | '\'' -> false | _ -> plain s (i + 1))

let add_escaped buf s =
  if plain s 0 then Buffer.add_string buf s
  else
    for i = 0 to String.length s - 1 do
      add_escaped_char buf s.[i]
    done

let escape s =
  let buf = Buffer.create (String.length s) in
  add_escaped buf s;
  Buffer.contents buf

let open_tag buf name =
  Buffer.add_char buf '<';
  Buffer.add_string buf name;
  Buffer.add_char buf '>'

let close_tag buf name =
  Buffer.add_string buf "</";
  Buffer.add_string buf name;
  Buffer.add_char buf '>'

let tag buf name body =
  open_tag buf name;
  body ();
  close_tag buf name

(* An element whose content is [s], escaped. *)
let text buf name s =
  open_tag buf name;
  add_escaped buf s;
  close_tag buf name

(* An element whose content is [s] as it is: a step kind, a number or
   a keyword, none of which holds markup. *)
let raw buf name s =
  open_tag buf name;
  Buffer.add_string buf s;
  close_tag buf name

(* An element whose content is [term], escaped: the term is written
   into [scratch] first, then copied over character by character. *)
let term buf ~scratch name t =
  Buffer.clear scratch;
  Mappings.Term.to_buffer scratch t;
  open_tag buf name;
  for i = 0 to Buffer.length scratch - 1 do
    add_escaped_char buf (Buffer.nth scratch i)
  done;
  close_tag buf name

let step_to_xml buf ~scratch step =
  let text = text buf and raw = raw buf and term = term buf ~scratch in
  tag buf "step" (fun () ->
      text "name" (Step.name step);
      raw "type" (Step.kind step);
      match step with
      | Step.Table_input { cube; _ } | Step.Table_output { cube; _ } -> text "table" cube
      | Step.Generate_rows { rows; _ } -> raw "limit" (string_of_int (List.length rows))
      | Step.Filter_rows { conditions; _ } ->
          List.iter
            (fun (f, v) ->
              tag buf "condition" (fun () ->
                  text "leftvalue" f;
                  raw "function" "=";
                  term "value" (Mappings.Term.Const v)))
            conditions
      | Step.Merge_join { keys; join; _ } ->
          List.iter (text "key") keys;
          raw "join_type" (match join with `Inner -> "INNER" | `Full -> "FULL OUTER")
      | Step.Sort _ -> ()
      | Step.Calculator { outputs; _ } ->
          List.iter
            (fun (f, t) ->
              tag buf "calculation" (fun () ->
                  text "field_name" f;
                  term "formula" t))
            outputs
      | Step.Group_by { keys; aggr; measure; _ } ->
          List.iter (fun (k, _) -> text "group_field" k) keys;
          text "aggregate" (Stats.Aggregate.to_string aggr);
          term "subject" measure
      | Step.Table_function { fn; params; _ } ->
          text "class" fn;
          List.iter
            (fun p -> tag buf "parameter" (fun () -> Printf.bprintf buf "%g" p))
            params
      | Step.Select_fields { fields; _ } ->
          List.iter
            (fun (src, dst) ->
              tag buf "field" (fun () ->
                  text "name" src;
                  text "rename" dst))
            fields)

let flow_to_xml buf ~scratch flow =
  tag buf "transformation" (fun () ->
      tag buf "info" (fun () -> text buf "name" flow.Flow.name);
      List.iter (step_to_xml buf ~scratch) flow.Flow.steps;
      tag buf "order" (fun () ->
          List.iter
            (fun step ->
              List.iter
                (fun input ->
                  tag buf "hop" (fun () ->
                      text buf "from" input;
                      text buf "to" (Step.name step)))
                (Step.inputs step))
            flow.Flow.steps))

let job_to_xml job =
  let buf = Buffer.create 16384 and scratch = Buffer.create 64 in
  Buffer.add_string buf "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n";
  tag buf "job" (fun () ->
      text buf "name" job.Job.name;
      List.iteri
        (fun i flow ->
          if i > 0 then Buffer.add_char buf '\n';
          flow_to_xml buf ~scratch flow)
        job.Job.flows);
  Buffer.contents buf
