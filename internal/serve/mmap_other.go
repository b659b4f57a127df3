//go:build !unix

package serve

// mmapSupported reports whether this platform's byte source is a mapping.
// Without one the same views run over a private copy of the file; the
// parity test pins that both sources serve identical rows, so only
// residency changes (private pages instead of shared page cache).
const mmapSupported = false

func openImage(path string) (*image, error) { return readImage(path) }
