package serve

import "pbg/internal/graph"

// OpenShardSetPrivate is OpenShardSet with the private-buffer byte source
// forced, so the parity test covers both sources on a platform that maps.
func OpenShardSetPrivate(dir string, schema *graph.Schema, dim int) (*ShardSet, error) {
	return openShardSet(dir, schema, dim, readImage)
}

// IVFGatherCounts runs one same-relation batch through the index on a fresh
// workspace and reports, next to the results, the rows the scan copied into
// scratch and the rows in the union of the lists the batch's queries
// selected (read back from the plan the scan left in the workspace).
func (s *Server) IVFGatherCounts(reqs []TopKRequest) (gathered, union int, res []TopKResult, err error) {
	v, err := s.acquire()
	if err != nil {
		return 0, 0, nil, err
	}
	defer v.release()
	ws := &workspace{}
	res = make([]TopKResult, len(reqs))
	rel := reqs[0].Rel
	v.topKIVF(ws, rel, reqs, res)
	it := v.ivf.Types[v.dstType[rel]]
	selected := make([]bool, it.Lists)
	for i := range reqs {
		for _, pc := range ws.probes[i*it.Lists:][:res[i].Probed] {
			selected[pc.cell] = true
		}
	}
	cell := 0
	for _, part := range it.Parts {
		for _, ids := range part.Lists {
			if selected[cell] {
				union += len(ids)
			}
			cell++
		}
	}
	return ws.gathered, union, res, nil
}
