package transform

// Version identifies the transformer's lowering generation. It is mixed
// into the content hash that keys gompcc's incremental rebuild cache
// (internal/modpipe), so cached outputs produced by an older lowering are
// invalidated wholesale when the generated code changes shape.
//
// Bump this string whenever a change to this package can alter the bytes
// emitted for any input: new constructs, different outlining, changed
// helper spellings, formatting of the generated calls. Pure diagnostic
// wording changes should bump it too — cached DiagnosticLists replay
// verbatim on warm runs.
const Version = "11.0"
