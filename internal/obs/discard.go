package obs

import (
	"context"
	"log/slog"
)

// DiscardLogger is the logger of a component configured without one. Its
// handler is disabled at every level, so a call builds no record and
// formats nothing, where a text handler writing to io.Discard would
// format every record and drop the bytes. (slog.DiscardHandler, which
// needs Go 1.24, is the same handler.)
var DiscardLogger = slog.New(discardHandler{})

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }
