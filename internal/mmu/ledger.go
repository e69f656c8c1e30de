package mmu

import "mixtlb/internal/ledger"

// AttachLedger enables (or, with nil, disables) charge trails for this
// MMU. The ledger sees every charge the MMU books in Stats.Books — probes
// per level, extra probe rounds, victim-level cache probes, walks (full,
// PWC-shortened and contiguity-encoded), dirty-bit assists, memo replays
// and oracle-retry re-translations — as a step of the in-flight access's
// trail, and feeds its tail recorder when one is armed. It never
// influences simulation results: tables are byte-identical with a ledger
// attached or not. Like telemetry, the disabled state costs a single
// nil-check branch per charge.
//
// The ledger belongs to this MMU's simulation goroutine; never share one
// ledger across MMUs (trails of different MMUs would interleave).
func (m *MMU) AttachLedger(l *ledger.Ledger) {
	m.led = l
}
