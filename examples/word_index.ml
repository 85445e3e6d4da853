(* Generic keys: a concurrent word index over string keys.

   The tree is a functor over Key.S; instantiating it with Key.Str gives a
   string-keyed index with no other change. Several domains index the words
   of a built-in text corpus in parallel; lookups then resolve words to
   their first occurrence position.

   Run with:  dune exec examples/word_index.exe *)

open Repro_storage
open Repro_core
module Tree = Sagiv.Make (Key.Str)
module Validate = Repro_core.Validate.Make (Key.Str)

let corpus =
  "the b tree and its variants are widely used as a data structure for large \
   files several papers have described how to perform concurrent operations \
   on b trees clearly as long as we have only readers no scheduling is \
   necessary when there are also updaters it is easy to show that not every \
   schedule of concurrent processes is correct an updater is required to make \
   changes in some subtree which is called the scope of the updater the idea \
   is to traverse each level of the tree while examining pairs of nodes if \
   they have together two k or fewer pairs then all the data is moved to one \
   of them and the other is deleted algorithms for concurrent operations that \
   is searches insertions and deletions on b star trees are presented these \
   algorithms improve previous ones since an insertion process has to lock \
   only one node at any time"

let () =
  let words = String.split_on_char ' ' corpus |> List.filter (fun w -> w <> "") in
  let words = Array.of_list words in
  let index = Tree.create ~order:4 () in

  (* Index in parallel: word -> position of first occurrence. *)
  let n_domains = 4 in
  let domains =
    Array.init n_domains (fun i ->
        Domain.spawn (fun () ->
            let ctx = Tree.ctx ~slot:i in
            let j = ref i in
            while !j < Array.length words do
              (* `Duplicate means an earlier (or racing) occurrence won —
                 exactly the semantics we want for "first occurrence". *)
              ignore (Tree.insert index ctx words.(!j) !j);
              j := !j + n_domains
            done))
  in
  Array.iter Domain.join domains;

  let ctx = Tree.ctx ~slot:0 in
  Printf.printf "indexed %d distinct words (of %d tokens), height %d\n"
    (Tree.cardinal index) (Array.length words) (Tree.height index);
  List.iter
    (fun w ->
      match Tree.search index ctx w with
      | Some pos -> Printf.printf "  %-12s first at token %d\n" w pos
      | None -> Printf.printf "  %-12s (not present)\n" w)
    [ "concurrent"; "tree"; "lock"; "updater"; "zebra" ];

  (* Every word must resolve to one of its real positions. *)
  Array.iteri
    (fun _ w ->
      match Tree.search index ctx w with
      | Some pos when words.(pos) = w -> ()
      | _ -> failwith ("bad index entry for " ^ w))
    words;
  Printf.printf "index valid = %b\n" (Repro_core.Validate.ok (Validate.check index))
