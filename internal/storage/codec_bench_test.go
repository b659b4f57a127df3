package storage

import (
	"bufio"
	"encoding/binary"
	"io"
	"path/filepath"
	"strconv"
	"testing"

	"pbg/internal/rng"
)

// benchShard is ~25 MB: 100k rows at d=64, the shape of one Freebase-scale
// partition shard.
func benchShard() *Shard {
	sh := NewShard(0, 0, 100_000, 64)
	sh.Init(rng.New(1), 1)
	return sh
}

func BenchmarkShardWrite(b *testing.B) {
	sh := benchShard()
	path := filepath.Join(b.TempDir(), "s.pbg")
	b.SetBytes(sh.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WriteShard(path, sh); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardRead(b *testing.B) {
	sh := benchShard()
	path := filepath.Join(b.TempDir(), "s.pbg")
	if err := WriteShard(path, sh); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(sh.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadShard(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFloatEncodeDirect measures the portable little-endian chunk loop
// (the big-endian host's path; a little-endian host writes the floats' own
// bytes and has nothing to encode) against BenchmarkFloatEncodeReflect (the
// reflective binary.Write it replaced) on the same 6.4M-element payload,
// isolating serialisation from file I/O.
func BenchmarkFloatEncodeDirect(b *testing.B) {
	sh := benchShard()
	w := bufio.NewWriterSize(io.Discard, 1<<20)
	b.SetBytes(int64(len(sh.Embs)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeFloatsPortable(w, sh.Embs); err != nil {
			b.Fatal(err)
		}
		_ = w.Flush()
	}
}

func BenchmarkFloatEncodeReflect(b *testing.B) {
	sh := benchShard()
	w := bufio.NewWriterSize(io.Discard, 1<<20)
	b.SetBytes(int64(len(sh.Embs)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := binary.Write(w, binary.LittleEndian, sh.Embs); err != nil {
			b.Fatal(err)
		}
		_ = w.Flush()
	}
}

// BenchmarkLayoutCodec times one shard image through the file path per codec
// — 4096 rows at d=128, the shape benchmark/'s codec probe uses — in MB/s of
// the fp32 in-memory size, so the codecs compare on rows handled per second.
func BenchmarkLayoutCodec(b *testing.B) {
	sh := NewShard(0, 0, 4096, 128)
	sh.Init(rng.New(1), 1)
	for _, dir := range []string{"encode", "decode"} {
		for _, c := range Codecs() {
			b.Run(dir+"/"+c.String(), func(b *testing.B) {
				path := filepath.Join(b.TempDir(), "s"+strconv.Itoa(int(c))+".pbg")
				if err := WriteShardCodec(path, sh, c); err != nil {
					b.Fatal(err)
				}
				b.SetBytes(sh.Bytes())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					if dir == "encode" {
						err = WriteShardCodec(path, sh, c)
					} else {
						_, _, err = ReadShardCodec(path)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
