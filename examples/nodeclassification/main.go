// Node-classification example: the YouTube downstream task of §5.3.
// Embeddings trained unsupervised on the social graph become features for a
// one-vs-rest logistic regression predicting the (multi-label) user
// categories, scored with micro/macro-F1 averaged over 10 random 90/10 splits.
package main

import (
	"fmt"
	"log"

	"pbg"
	"pbg/internal/classify"
)

func main() {
	lg, err := pbg.CommunityGraph(pbg.CommunityGraphConfig{
		Nodes: 4000, Communities: 20, Edges: 40000,
		ExtraLabelProb: 0.05, Seed: 13,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("labeled graph: %d users, %d edges, %d categories\n",
		lg.Graph.Schema.Entities[0].Count, lg.Graph.Edges.Len(), lg.NumClasses)

	model, err := pbg.Train(lg.Graph, pbg.TrainConfig{
		Dim: 32, Epochs: 10, Workers: 4, Seed: 1,
		Comparator: "cos", Loss: "softmax",
	})
	if err != nil {
		log.Fatal(err)
	}

	// Materialise embeddings as a feature matrix.
	features, err := model.EmbeddingMatrix("user")
	if err != nil {
		log.Fatal(err)
	}

	// 10 random splits at 90% train, predicting top-k_i labels per node (the
	// protocol of Perozzi et al. 2014 that Table 1 follows).
	res, err := classify.CrossValidate(features, lg.Labels,
		classify.Config{Classes: lg.NumClasses, Epochs: 15, Seed: 3}, 10, 0.9)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node classification: micro-F1 %.3f, macro-F1 %.3f\n", res.MicroF1, res.MacroF1)
}
