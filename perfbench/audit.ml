(* The returned set S in the two forms the output checks need: as a
   dataset, for the paper's guarantee I(f, eps) ⊆ S
   ([Indist.has_false_negatives] against the full dataset), and as its
   tuple ids, for the transcript digest. *)

module Dataset = Indq_dataset.Dataset
module Tuple = Indq_dataset.Tuple

(* A served [done] reply carries (tuple id, values) pairs; rebuild S as a
   dataset so it is checked exactly like an in-process result. *)
let output_of_wire ~dim pairs =
  Dataset.of_tuples ~dim
    (List.map (fun (id, values) -> Tuple.of_array ~id values) pairs)

let ids output = List.map Tuple.id (Dataset.to_list output)
