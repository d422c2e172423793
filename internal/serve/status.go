package serve

import (
	"context"
	"errors"
	"net/http"

	"vprobe"
)

// StatusClientClosedRequest is nginx's conventional code for a request
// the client abandoned; net/http has no constant for it.
const StatusClientClosedRequest = 499

// statusTable is THE error-to-HTTP-status mapping: every public sentinel
// of the vprobe package appears here with a deliberate status, and the
// audit test, which reads the sentinels from the vprobe package's
// errors.go, fails when a new sentinel is added without a row. Order
// matters only for readability — sentinels are pairwise distinct.
var statusTable = []struct {
	Sentinel error
	Status   int
}{
	// Malformed or unsatisfiable requests: the client must change the spec.
	{vprobe.ErrSpecVersion, http.StatusBadRequest},
	{vprobe.ErrInvalidSpec, http.StatusBadRequest},

	// State conflicts: the request raced or repeated a one-shot operation.
	{vprobe.ErrAlreadyRun, http.StatusConflict},
	{vprobe.ErrTelemetryAttached, http.StatusConflict},
	{vprobe.ErrTracingAttached, http.StatusConflict},

	// Lifecycle: server-enforced timeout and client disconnect.
	{context.DeadlineExceeded, http.StatusGatewayTimeout},
	{context.Canceled, StatusClientClosedRequest},
}

// statusFor maps err to its HTTP status via statusTable; unmapped errors
// are internal faults (500).
func statusFor(err error) int {
	for _, row := range statusTable {
		if errors.Is(err, row.Sentinel) {
			return row.Status
		}
	}
	return http.StatusInternalServerError
}
