// The stack fixture is a library package named stack: the pass covers it
// like a main package, because its tier constructors dial the daemons'
// links.
package stack

import (
	"time"

	"repro/internal/protocol"
)

func forwardLink(addr string) (*protocol.DatabaseClient, error) {
	return protocol.DialDatabase(addr, protocol.WithLazyDial()) // want "DialDatabase without WithCallTimeout"
}

func shardLink(addr string, d time.Duration) (*protocol.DatabaseClient, error) {
	opts := []protocol.DialOption{protocol.WithLazyDial(), protocol.WithCallTimeout(d)}
	return protocol.DialDatabase(addr, opts...)
}
