package train

import (
	"pbg/internal/graph"
	"pbg/internal/storage"
)

// View provides read access to trained embeddings across partitions,
// acquiring shards from the store on demand and holding them until Close.
// Evaluation and downstream tasks use it to fetch arbitrary entity rows.
type View struct {
	store  storage.Store
	schema *graph.Schema
	held   map[shardKey]shardRef
}

// NewView opens a view over the trainer's store.
func (t *Trainer) NewView() *View {
	return &View{store: t.store, schema: t.g.Schema, held: map[shardKey]shardRef{}}
}

// NewStoreView opens a view over an arbitrary store (distributed eval).
func NewStoreView(store storage.Store, schema *graph.Schema) *View {
	return &View{store: store, schema: schema, held: map[shardKey]shardRef{}}
}

// Embedding copies the embedding of entity id (of entity type index t) into
// out and returns it. out must have length Dim.
func (v *View) Embedding(typeIdx int, id int32, out []float32) ([]float32, error) {
	ent := v.schema.Entities[typeIdx]
	part := 0
	if ent.Partitioned() {
		part = ent.PartitionOf(id)
	}
	k := shardKey{typeIdx, part}
	ref, ok := v.held[k]
	if !ok {
		sh, err := v.store.Acquire(typeIdx, part)
		if err != nil {
			return nil, err
		}
		ref = shardRef{shard: sh, first: firstID(ent, part)}
		v.held[k] = ref
	}
	copy(out, ref.row(id))
	return out, nil
}

// Close releases all shards held by the view.
func (v *View) Close() error {
	var first error
	for k := range v.held {
		if err := v.store.Release(k.t, k.p); err != nil && first == nil {
			first = err
		}
	}
	v.held = map[shardKey]shardRef{}
	return first
}
