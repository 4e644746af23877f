(* Everything the benchmark writes lives under .perfbench/ at the root
   of the checkout: per-process scratch directories, traces and the
   result records. *)

let root = ".perfbench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let file name =
  mkdir_p root;
  Filename.concat root name

let rec remove path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

(* A fresh scratch directory for this process, removed at exit. *)
let scratch =
  lazy
    (let dir = file (Printf.sprintf "work-%d" (Unix.getpid ())) in
     remove dir;
     mkdir_p dir;
     at_exit (fun () -> remove dir);
     dir)

let scratch_dir name =
  let dir = Filename.concat (Lazy.force scratch) name in
  mkdir_p dir;
  dir

let rec du path =
  match Sys.is_directory path with
  | exception Sys_error _ -> 0
  | true ->
      Array.fold_left
        (fun acc f -> acc + du (Filename.concat path f))
        0 (Sys.readdir path)
  | false -> (Unix.stat path).Unix.st_size

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun f -> write_file (Filename.concat dst f) (read_file (Filename.concat src f)))
    (Sys.readdir src)
