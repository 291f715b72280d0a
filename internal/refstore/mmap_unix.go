//go:build unix

package refstore

import (
	"os"
	"syscall"
)

// mmapSupported gates the zero-copy load path at runtime.
const mmapSupported = true

// mmapFile maps size bytes of f read-only and shared, so every
// generation holder — every worker — pages against one
// physical copy of the index.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// munmapFile releases a mapping made by mmapFile.
func munmapFile(b []byte) error { return syscall.Munmap(b) }
