package wire

import "sync"

// This file provides the pooled buffers behind the zero-allocation encode
// path: steady-state job and result serialization borrows its scratch
// space here instead of allocating per message, so the serving hot path
// (capped by TestHotPathAllocCap and TestServingMixAllocCap in
// internal/server) stops pressuring the GC.
// Buffers are plain []byte wrappers; the indirection through PayloadBufs
// keeps the grown capacity when a buffer returns to the pool.

// PayloadBufs is a borrowed pair of encode buffers sized for one
// personalization job: JSON holds its format-3 body (the field keeps its
// name from when jobs were JSON), Gz the gzip form only the Table-1
// /online route serves. Obtain with GetPayloadBufs, return with
// PutPayloadBufs once the bytes have been written to the wire; the
// slices must not be referenced afterwards.
type PayloadBufs struct {
	JSON []byte
	Gz   []byte
}

var payloadPool = sync.Pool{New: func() any {
	return &PayloadBufs{
		JSON: make([]byte, 0, 8<<10),
		Gz:   make([]byte, 0, 4<<10),
	}
}}

// GetPayloadBufs borrows a buffer pair from the pool.
func GetPayloadBufs() *PayloadBufs {
	return payloadPool.Get().(*PayloadBufs)
}

// PutPayloadBufs returns a borrowed pair. The slices keep their grown
// capacity (truncated to zero length), so a steady workload converges on
// zero buffer allocations.
func PutPayloadBufs(b *PayloadBufs) {
	b.JSON = b.JSON[:0]
	b.Gz = b.Gz[:0]
	payloadPool.Put(b)
}

// GetBuf borrows a general-purpose encode buffer (result bodies, ack
// bodies). Return it with PutBuf.
func GetBuf() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuf returns a borrowed buffer, keeping its grown capacity.
func PutBuf(b *[]byte) {
	*b = (*b)[:0]
	bufPool.Put(b)
}

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1<<10)
	return &b
}}
