// Package errflow exercises the errflow analyzer: an error assigned to a
// variable must be read (condition, return, argument, explicit discard) on
// every path before it is overwritten or the function exits.
package errflow

import (
	"context"
	"errors"
)

func fallible() error { return errors.New("boom") }

func use(err error) {}

// checkedOnOnePath reads err only inside the debug branch; the other path
// drops it.
func checkedOnOnePath(debug bool) error {
	err := fallible() // want "error assigned here is never read on some path"
	if debug {
		return err
	}
	return nil
}

// checkedEverywhere reads the error in the condition: both branches cover
// the assignment.
func checkedEverywhere() int {
	err := fallible()
	if err != nil {
		return 1
	}
	return 0
}

// overwrittenUnread loses the first assignment before anything reads it.
func overwrittenUnread() error {
	err := fallible() // want "error assigned here is never read on some path"
	err = fallible()
	return err
}

// explicitDiscard counts as a read: `_ = err` is the documented way to say
// "I mean to drop this".
func explicitDiscard() {
	err := fallible()
	_ = err
}

// passedAsArgument is a read like any other.
func passedAsArgument() {
	err := fallible()
	use(err)
}

// nakedReturnReads covers a named result via the naked return.
func nakedReturnReads() (err error) {
	err = fallible()
	return
}

// nilResetIsIntentional swallows the error by explicit nil reset; resets
// are deliberate and out of scope.
func nilResetIsIntentional(swallow bool) (err error) {
	err = fallible()
	if swallow {
		err = nil
	}
	return
}

// rangeValueIsFine is the collector pattern: per-iteration bindings read in
// the body, with a legitimate zero-iteration path.
func rangeValueIsFine(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// capturedByClosure is out of scope: reads inside the literal are invisible
// to an intraprocedural pass, so the variable is not tracked.
func capturedByClosure() func() error {
	err := fallible()
	return func() error { return err }
}

// ctxErrCheckedOnOnePath polls cancellation but only acts on it in the
// verbose branch — the quiet path drops the cancellation on the floor, which
// is exactly the bug class the cancellable runtime must not reintroduce.
func ctxErrCheckedOnOnePath(ctx context.Context, verbose bool) error {
	err := ctx.Err() // want "error assigned here is never read on some path"
	if verbose {
		return err
	}
	return nil
}

// ctxErrOverwrittenUnread polls twice and loses the first result before
// anything reads it.
func ctxErrOverwrittenUnread(ctx context.Context) error {
	err := ctx.Err() // want "error assigned here is never read on some path"
	err = ctx.Err()
	return err
}

// ctxErrGate is the canonical cancellation safe-point: the poll is read in
// the condition on every path.
func ctxErrGate(ctx context.Context) error {
	err := ctx.Err()
	if err != nil {
		return context.Cause(ctx)
	}
	return nil
}

func decode(b []byte) (*int, error) {
	if len(b) == 0 {
		return nil, errors.New("empty")
	}
	n := len(b)
	return &n, nil
}

// taglessSwitchReadsFirst tests err in the first case: the second case and
// the path past the switch run only after that test failed, so every path
// reads err.
func taglessSwitchReadsFirst(b []byte) bool {
	got, err := decode(b)
	switch {
	case err != nil:
		return false
	case got == nil:
		return false
	}
	return true
}

// taglessSwitchReadsLate tests err only in a later case: when the first case
// matches, err is never read.
func taglessSwitchReadsLate(b []byte) bool {
	got, err := decode(b) // want "error assigned here is never read on some path"
	switch {
	case got == nil:
		return false
	case err != nil:
		return false
	}
	return true
}
