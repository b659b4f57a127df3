package dist

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync"

	"pbg/internal/graph"
	"pbg/internal/obs"
	"pbg/internal/rng"
	"pbg/internal/storage"
	"pbg/internal/wire"
)

// PartitionServer holds embedding partitions (with their Adagrad state) in
// memory for the trainers of one deployment, each as the wire image trainers
// exchange it in (see encodeShard): Put keeps the bytes it gated, Get replies
// with them, and the durable file is the same bytes again, so the server
// never decodes a shard it only has to hand on — and never copies one: the
// transport reads a Put's body into a buffer the server supplies (imageBuf),
// that buffer becomes the shard's image, and a Get writes it to the socket
// as it is. The image a Put replaces goes back to a small free list for the
// next Put's body once the last reader that was handed it (a Get reply still
// on its way out, the durable writer) has let go, so a steady run of swaps
// allocates no image at all and the list never holds more than the Puts in
// flight have just replaced. A deployment runs several of
// these; each (entity type, partition) key lives on exactly one server,
// chosen by the shared client-side hash (serverIndex), so a server only ever
// materialises the shards it owns.
//
// Shards are created lazily with the same deterministic per-shard seeding as
// storage stores, so a partition first touched by any trainer — or never
// written back at all — still has well-defined contents.
//
// Fencing: each shard remembers the highest lease token that has read or
// written it. A write carrying an older token is rejected — the writer's
// bucket lease expired and was re-granted, so its state is stale. Token 0
// (single-machine stores, read-only evaluation snapshots) bypasses reads but
// may write only while a shard is still unfenced.
//
// Durability: with WithDurableDir, accepted writes are persisted to disk by
// a write-behind goroutine (latest version wins; Flush drains the queue),
// and a restarted server reloads shards from the directory instead of
// re-initialising them, so a partition server crash costs at most the
// not-yet-flushed tail rather than an epoch of embeddings.
type PartitionServer struct {
	schema *graph.Schema
	dim    int
	seed   uint64

	// Storage is striped to keep concurrent Get/Put from different trainers
	// from serialising on one mutex.
	stripes []partStripe

	durable *durableState

	// free holds replaced images for imageBuf to hand out again.
	freeMu sync.Mutex
	free   [][]byte

	obs           *obs.Hub // nil unless WithPartObs
	fencedRejects *obs.Counter
	durableWrites *obs.Counter
}

type partStripe struct {
	mu sync.Mutex
	// shards holds each shard's gated fp32 image. A current image is never
	// written into — Put swaps it — so readers use it outside the lock, each
	// holding a pin for as long as it does.
	shards map[partKey]*image
	fence  map[partKey]uint64
}

// image is one version of a shard's bytes. The stripe mutex guards the
// counts.
type image struct {
	b []byte
	// pooled: b is the server's to reuse (it came from imageBuf or from lazy
	// initialisation), not a caller's slice handed to Put in process.
	pooled bool
	// pins counts readers using b outside the lock; replaced marks a version
	// a Put has superseded. b is reusable when it is replaced and unpinned.
	pins     int
	replaced bool
}

// maxFreeImages bounds the free list: an image enters it only by being
// replaced and a Put's body takes one out, so it holds at most what the Puts
// in flight have just replaced — this is the ceiling on "in flight".
const maxFreeImages = 4

type partKey struct{ t, p int }

// PartOption configures a PartitionServer at construction.
type PartOption func(*PartitionServer)

// WithDurableDir makes the server write shards through to dir (write-behind)
// and restore them from it on startup. The directory uses the same on-disk
// shard format and naming as storage.DiskStore.
func WithDurableDir(dir string) PartOption {
	return func(ps *PartitionServer) {
		if dir == "" {
			return
		}
		ps.durable = newDurableState(dir)
	}
}

// WithPartObs publishes the server's fencing/durability metrics on h's
// registry instead of a private quiet hub.
func WithPartObs(h *obs.Hub) PartOption {
	return func(ps *PartitionServer) {
		if h == nil {
			return
		}
		ps.obs = h
		ps.bindMetrics(h.Reg)
	}
}

// NewPartitionServer creates a server for the given schema and embedding
// dimension. seed drives lazy shard initialisation (it must match across the
// deployment's partition servers and the single-machine baseline for
// reproducible starts). shards is the number of internal lock stripes;
// values below 1 mean 1.
func NewPartitionServer(schema *graph.Schema, dim int, seed uint64, shards int, opts ...PartOption) *PartitionServer {
	if shards < 1 {
		shards = 1
	}
	ps := &PartitionServer{schema: schema, dim: dim, seed: seed, stripes: make([]partStripe, shards)}
	for i := range ps.stripes {
		ps.stripes[i].shards = make(map[partKey]*image)
		ps.stripes[i].fence = make(map[partKey]uint64)
	}
	ps.bindMetrics(obs.NewQuietHub().Reg)
	for _, opt := range opts {
		opt(ps)
	}
	if ps.durable != nil {
		go ps.durable.run(ps)
	}
	return ps
}

func (ps *PartitionServer) bindMetrics(reg *obs.Registry) {
	ps.fencedRejects = reg.Counter(`pbg_dist_fenced_rejects_total{server="partition"}`)
	ps.durableWrites = reg.Counter("pbg_dist_durable_writes_total")
}

// obsHub is where the server's transport publishes (see newServer).
func (ps *PartitionServer) obsHub() *obs.Hub { return ps.obs }

// maxPutBytes is the bound on a Put request: the token and the largest fp32
// shard image the schema admits.
func (ps *PartitionServer) maxPutBytes() int {
	var largest int64
	for t, e := range ps.schema.Entities {
		for p := 0; p < e.NumPartitions; p++ {
			l := storage.Layout{Codec: storage.CodecFP32, TypeIndex: t, Part: p, Count: e.PartitionCount(p), Dim: ps.dim}
			largest = max(largest, l.Size())
		}
	}
	return putTokenBytes + int(min(largest, wire.MaxPayload-putTokenBytes))
}

// imageBuf returns an n-byte buffer for a Put's body: a replaced image when
// one is large enough, a fresh one otherwise. n has passed maxPutBytes.
func (ps *PartitionServer) imageBuf(n int) []byte {
	ps.freeMu.Lock()
	defer ps.freeMu.Unlock()
	for i, b := range ps.free {
		if cap(b) >= n {
			last := len(ps.free) - 1
			ps.free[i], ps.free[last] = ps.free[last], nil
			ps.free = ps.free[:last]
			return b[:n]
		}
	}
	return make([]byte, n)
}

// retireLocked gives img's buffer back once nothing can read it any more.
// The stripe mutex is held.
func (ps *PartitionServer) retireLocked(img *image) {
	if !img.replaced || img.pins > 0 || !img.pooled {
		return
	}
	ps.freeMu.Lock()
	if len(ps.free) < maxFreeImages {
		ps.free = append(ps.free, img.b)
	}
	ps.freeMu.Unlock()
	img.b = nil
}

// unpin ends one reader's use of img.
func (ps *PartitionServer) unpin(st *partStripe, img *image) {
	st.mu.Lock()
	img.pins--
	ps.retireLocked(img)
	st.mu.Unlock()
}

func (ps *PartitionServer) stripe(k partKey) *partStripe {
	return &ps.stripes[(k.t*31+k.p)%len(ps.stripes)]
}

func (ps *PartitionServer) checkKey(t, p, dim int) error {
	if t < 0 || t >= len(ps.schema.Entities) {
		return fmt.Errorf("dist: entity type %d out of range", t)
	}
	e := ps.schema.Entities[t]
	if p < 0 || p >= e.NumPartitions {
		return fmt.Errorf("dist: partition %d out of range for type %q (%d partitions)", p, e.Name, e.NumPartitions)
	}
	if dim != 0 && dim != ps.dim {
		return fmt.Errorf("dist: client dim %d, server dim %d", dim, ps.dim)
	}
	return nil
}

// loadLocked returns the image of shard k, restoring it from the durable
// directory if one exists there, else initialising it deterministically on
// first touch. The stripe mutex must be held.
func (ps *PartitionServer) loadLocked(st *partStripe, k partKey, scale float32) (*image, error) {
	if img, ok := st.shards[k]; ok {
		return img, nil
	}
	if scale == 0 {
		scale = 1
	}
	want := ps.schema.Entities[k.t].PartitionCount(k.p)
	b, err := ps.restore(k, want)
	if err != nil {
		return nil, err
	}
	if b == nil {
		sh := storage.NewShard(k.t, k.p, want, ps.dim)
		// Shared seed derivation, so a fresh distributed run starts from the
		// same embeddings as a MemStore with the same seed.
		sh.Init(rng.New(storage.ShardSeed(ps.seed, k.t, k.p)), scale)
		if b, err = encodeShard(sh); err != nil {
			return nil, err
		}
	}
	img := &image{b: b, pooled: true}
	st.shards[k] = img
	return img, nil
}

// restore reads shard k's durable file through the same gate as a wire
// payload; nil without an error means there is none.
func (ps *PartitionServer) restore(k partKey, want int) ([]byte, error) {
	if ps.durable == nil {
		return nil, nil
	}
	img, err := os.ReadFile(storage.ShardPath(ps.durable.dir, k.t, k.p))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	l, err := wireLayout(img)
	if err != nil {
		return nil, fmt.Errorf("durable shard (%d,%d): %w", k.t, k.p, err)
	}
	if l.TypeIndex != k.t || l.Part != k.p || l.Count != want || l.Dim != ps.dim {
		return nil, fmt.Errorf("dist: durable shard (%d,%d) holds (%d,%d) of %d×%d, schema wants %d×%d",
			k.t, k.p, l.TypeIndex, l.Part, l.Count, l.Dim, want, ps.dim)
	}
	return img, nil
}

// Get fetches one shard, lazily initialising it on first touch. A non-zero
// token advances the shard's fence; a token the fence has already passed is
// rejected, so a trainer whose lease was superseded fails before training.
func (ps *PartitionServer) Get(args GetArgs, reply *ShardReply) error {
	if err := ps.checkKey(args.TypeIndex, args.Part, args.Dim); err != nil {
		return err
	}
	if want := ps.schema.Entities[args.TypeIndex].PartitionCount(args.Part); args.Count != 0 && args.Count != want {
		return fmt.Errorf("dist: client expects %d rows in shard (%d,%d), server schema has %d — mismatched graph configuration",
			args.Count, args.TypeIndex, args.Part, want)
	}
	k := partKey{args.TypeIndex, args.Part}
	st := ps.stripe(k)
	st.mu.Lock()
	if args.Token != 0 {
		if args.Token < st.fence[k] {
			st.mu.Unlock()
			ps.fencedRejects.Inc()
			return fmt.Errorf("%w: get of shard (%d,%d) under token %d, fence at %d",
				ErrFenced, k.t, k.p, args.Token, st.fence[k])
		}
		st.fence[k] = args.Token
	}
	img, err := ps.loadLocked(st, k, args.InitScale)
	if err == nil {
		img.pins++
		reply.Shard = img.b
		reply.release = func() { ps.unpin(st, img) }
	}
	st.mu.Unlock()
	return err
}

// Put stores a shard back, replacing the server copy. The write is fenced:
// a token older than the shard's fence — or a token-0 write to a shard some
// lease has fenced — is rejected, so a zombie trainer whose bucket was
// re-leased can never overwrite the new holder's state.
func (ps *PartitionServer) Put(args PutArgs, reply *Ack) error {
	l, err := wireLayout(args.Shard)
	if err != nil {
		return err
	}
	if err := ps.checkKey(l.TypeIndex, l.Part, l.Dim); err != nil {
		return err
	}
	if want := ps.schema.Entities[l.TypeIndex].PartitionCount(l.Part); l.Count != want || l.Dim != ps.dim {
		return fmt.Errorf("dist: Put shard (%d,%d) is %d×%d, want %d×%d", l.TypeIndex, l.Part, l.Count, l.Dim, want, ps.dim)
	}
	k := partKey{l.TypeIndex, l.Part}
	st := ps.stripe(k)
	st.mu.Lock()
	if fence := st.fence[k]; args.Token < fence {
		st.mu.Unlock()
		ps.fencedRejects.Inc()
		return fmt.Errorf("%w: put of shard (%d,%d) under token %d, fence at %d",
			ErrFenced, k.t, k.p, args.Token, fence)
	}
	if args.Token != 0 {
		st.fence[k] = args.Token
	}
	if old := st.shards[k]; old != nil {
		old.replaced = true
		ps.retireLocked(old)
	}
	st.shards[k] = &image{b: args.Shard, pooled: args.pooled}
	st.mu.Unlock()
	if ps.durable != nil {
		ps.durable.enqueue(k)
	}
	return nil
}

// Flush drains the durable write-behind queue, so every write accepted
// before the call is on disk when it returns. A no-op for memory-only
// servers.
func (ps *PartitionServer) Flush(args FlushArgs, reply *Ack) error {
	return ps.flushDurable()
}

// flushDurable is the in-process form of Flush, used by Cluster checkpoints.
func (ps *PartitionServer) flushDurable() error {
	if ps.durable == nil {
		return nil
	}
	return ps.durable.flush()
}

// closeDurable stops the write-behind goroutine after draining its queue.
func (ps *PartitionServer) closeDurable() error {
	if ps.durable == nil {
		return nil
	}
	return ps.durable.close()
}

// durableState is the write-behind machinery of a durable PartitionServer:
// Put marks the shard key dirty and a single goroutine persists the latest
// version of each dirty shard in FIFO key order. Re-dirtying a queued key is
// free (latest wins — the writer re-reads the live shard at write time), so
// a hot shard costs one disk write per drain, not one per Put.
type durableState struct {
	dir string

	mu       sync.Mutex
	cond     *sync.Cond
	dirty    map[partKey]bool
	queue    []partKey
	inFlight bool
	err      error // first write error, sticky — surfaced by flush
	closed   bool
	done     chan struct{}
}

func newDurableState(dir string) *durableState {
	d := &durableState{
		dir:   dir,
		dirty: make(map[partKey]bool),
		done:  make(chan struct{}),
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

func (d *durableState) enqueue(k partKey) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed || d.dirty[k] {
		return
	}
	d.dirty[k] = true
	d.queue = append(d.queue, k)
	d.cond.Broadcast()
}

// run is the write-behind loop; it exits when close drains the queue.
func (d *durableState) run(ps *PartitionServer) {
	defer close(d.done)
	for {
		d.mu.Lock()
		for len(d.queue) == 0 && !d.closed {
			d.cond.Wait()
		}
		if len(d.queue) == 0 {
			d.mu.Unlock()
			return
		}
		k := d.queue[0]
		d.queue = d.queue[1:]
		delete(d.dirty, k)
		d.inFlight = true
		d.mu.Unlock()

		// Re-read the live image now, so the write always persists the most
		// recent accepted version.
		st := ps.stripe(k)
		st.mu.Lock()
		img := st.shards[k]
		if img != nil {
			img.pins++
		}
		st.mu.Unlock()
		var err error
		if img != nil {
			err = storage.WriteShardImage(storage.ShardPath(d.dir, k.t, k.p), img.b)
			ps.unpin(st, img)
			if err == nil {
				ps.durableWrites.Inc()
			}
		}

		d.mu.Lock()
		d.inFlight = false
		if err != nil && d.err == nil {
			d.err = err
		}
		d.cond.Broadcast()
		d.mu.Unlock()
	}
}

// flush blocks until the queue is drained, returning the first write error
// seen so far (checkpoints must not report success over a failed write).
func (d *durableState) flush() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for len(d.queue) > 0 || d.inFlight {
		d.cond.Wait()
	}
	return d.err
}

func (d *durableState) close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		<-d.done
		return d.err
	}
	d.closed = true
	d.cond.Broadcast()
	d.mu.Unlock()
	<-d.done
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}
