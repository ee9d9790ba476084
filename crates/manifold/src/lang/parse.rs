//! Recursive-descent parser for the MANIFOLD subset.

use crate::error::{MfError, MfResult};
use crate::lang::ast::*;
use crate::lang::error::{LangError, LangErrorKind};
use crate::lang::token::{lex, Token, TokenKind};

/// How deep blocks, action groups and expressions may nest. The parser
/// recurses once per level, so a deeper source is refused with
/// [`LangErrorKind::RecursionLimitExceeded`] rather than overflowing the
/// stack. The paper's sources nest six deep; 64 levels take about 1 MB of
/// stack in a debug build, half a test thread's.
pub const MAX_NESTING: usize = 64;

/// Parse a full source file.
pub fn parse_program(source: &str) -> MfResult<Program> {
    let lexed = lex(source)?;
    let mut p = Parser {
        tokens: lexed.tokens,
        pos: 0,
        depth: 0,
    };
    let mut items = Vec::new();
    while !p.at(&TokenKind::Eof) {
        items.push(p.item()?);
    }
    Ok(Program {
        items,
        includes: lexed.includes,
        pragmas: lexed.pragmas,
    })
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Productions entered through [`Parser::nested`] and not yet left.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_ahead(&self, k: usize) -> &TokenKind {
        &self.tokens[(self.pos + k).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos.min(self.tokens.len() - 1)].line
    }

    fn at(&self, k: &TokenKind) -> bool {
        self.peek() == k
    }

    fn at_ident(&self, word: &str) -> bool {
        matches!(self.peek(), TokenKind::Ident(w) if w == word)
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        k
    }

    fn expect(&mut self, k: TokenKind) -> MfResult<()> {
        if self.at(&k) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(&format!("expected {k:?}, found {:?}", self.peek())))
        }
    }

    fn accept(&mut self, k: &TokenKind) -> bool {
        if self.at(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn accept_word(&mut self, word: &str) -> bool {
        if self.at_ident(word) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> MfResult<String> {
        match self.bump() {
            TokenKind::Ident(s) => Ok(s),
            other => Err(self.err(&format!("expected identifier, found {other:?}"))),
        }
    }

    fn err(&self, msg: &str) -> MfError {
        MfError::Spec(format!("parse error at line {}: {msg}", self.line()))
    }

    /// Parse one level of nesting with `f`. Every cycle in the grammar —
    /// `{` blocks, `( … )` action groups, parenthesised expressions,
    /// unary `-` — passes through here.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> MfResult<T>) -> MfResult<T> {
        if self.depth == MAX_NESTING {
            return Err(LangError::at(LangErrorKind::RecursionLimitExceeded, self.line()).into());
        }
        self.depth += 1;
        let parsed = f(self);
        self.depth -= 1;
        parsed
    }

    // ------------------------------------------------------------ items

    fn item(&mut self) -> MfResult<Item> {
        let export = self.accept_word("export");
        if self.accept_word("manner") {
            let name = self.ident()?;
            let params = self.params()?;
            let body = self.block()?;
            // Optional trailing dot after a manner body.
            self.accept(&TokenKind::Dot);
            return Ok(Item::Manner {
                export,
                name,
                params,
                body,
            });
        }
        if export {
            return Err(self.err("`export` must precede `manner`"));
        }
        if self.accept_word("manifold") {
            return self.manifold_item();
        }
        Err(self.err(&format!(
            "expected `manner` or `manifold`, found {:?}",
            self.peek()
        )))
    }

    fn manifold_item(&mut self) -> MfResult<Item> {
        let name = self.ident()?;
        let params = if self.at(&TokenKind::LParen) {
            self.params()?
        } else {
            Vec::new()
        };
        let mut ports = Vec::new();
        let mut atomic = false;
        let mut atomic_events = Vec::new();
        let mut body = None;
        loop {
            if self.accept_word("port") {
                let is_input = if self.accept_word("in") {
                    true
                } else if self.accept_word("out") {
                    false
                } else {
                    return Err(self.err("expected `in` or `out` after `port`"));
                };
                let pname = self.ident()?;
                self.expect(TokenKind::Dot)?;
                ports.push(PortDecl {
                    is_input,
                    name: pname,
                });
                continue;
            }
            if self.accept_word("atomic") {
                atomic = true;
                if self.at(&TokenKind::LBrace) {
                    // `atomic {internal. event e1, e2, …}.`
                    self.bump();
                    loop {
                        if self.accept(&TokenKind::RBrace) {
                            break;
                        }
                        if self.accept_word("internal") {
                            self.accept(&TokenKind::Dot);
                            continue;
                        }
                        if self.accept_word("event") {
                            loop {
                                atomic_events.push(self.ident()?);
                                if !self.accept(&TokenKind::Comma) {
                                    break;
                                }
                            }
                            self.accept(&TokenKind::Dot);
                            continue;
                        }
                        return Err(self.err("unexpected token in atomic body"));
                    }
                }
                self.accept(&TokenKind::Dot);
                break;
            }
            if self.at(&TokenKind::LBrace) {
                body = Some(self.block()?);
                self.accept(&TokenKind::Dot);
                break;
            }
            if self.accept(&TokenKind::Dot) {
                break;
            }
            return Err(self.err(&format!(
                "unexpected token in manifold declaration: {:?}",
                self.peek()
            )));
        }
        Ok(Item::Manifold {
            name,
            params,
            ports,
            atomic,
            atomic_events,
            body,
        })
    }

    fn params(&mut self) -> MfResult<Vec<Param>> {
        self.expect(TokenKind::LParen)?;
        let mut out = Vec::new();
        if self.accept(&TokenKind::RParen) {
            return Ok(out);
        }
        loop {
            out.push(self.param()?);
            if self.accept(&TokenKind::Comma) {
                continue;
            }
            self.expect(TokenKind::RParen)?;
            break;
        }
        Ok(out)
    }

    fn param(&mut self) -> MfResult<Param> {
        if self.accept_word("process") {
            let name = self.ident()?;
            let mut inputs = Vec::new();
            let mut outputs = Vec::new();
            if self.accept(&TokenKind::Lt) {
                loop {
                    inputs.push(self.ident()?);
                    if !self.accept(&TokenKind::Comma) {
                        break;
                    }
                }
                if self.accept(&TokenKind::Slash) {
                    loop {
                        outputs.push(self.ident()?);
                        if !self.accept(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(TokenKind::Gt)?;
            }
            return Ok(Param::Process {
                name,
                inputs,
                outputs,
            });
        }
        if self.accept_word("manifold") {
            let name = self.ident()?;
            let mut arg_kinds = Vec::new();
            if self.accept(&TokenKind::LParen) && !self.accept(&TokenKind::RParen) {
                loop {
                    arg_kinds.push(self.ident()?);
                    if !self.accept(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(TokenKind::RParen)?;
            }
            return Ok(Param::Manifold { name, arg_kinds });
        }
        if self.accept_word("event") {
            // Kind-only (`Worker(event)`) or named (`event done`).
            let name = if let TokenKind::Ident(_) = self.peek() {
                self.ident()?
            } else {
                "_".to_string()
            };
            return Ok(Param::Event(name));
        }
        if self.accept_word("port") {
            let is_input = if self.accept_word("in") {
                true
            } else if self.accept_word("out") {
                false
            } else {
                return Err(self.err("expected `in`/`out` after `port`"));
            };
            let name = self.ident()?;
            return Ok(Param::Port { is_input, name });
        }
        Err(self.err(&format!("bad parameter: {:?}", self.peek())))
    }

    // ------------------------------------------------------------ blocks

    fn block(&mut self) -> MfResult<Block> {
        self.nested(Self::block_body)
    }

    fn block_body(&mut self) -> MfResult<Block> {
        self.expect(TokenKind::LBrace)?;
        let mut block = Block::default();
        loop {
            if self.accept(&TokenKind::RBrace) {
                break;
            }
            match self.block_item()? {
                BlockItem::Decl(d) => block.declarations.push(d),
                BlockItem::State(s) => block.states.push(s),
            }
        }
        Ok(block)
    }

    fn block_item(&mut self) -> MfResult<BlockItem> {
        // Declarations begin with a keyword; states with `label:`.
        if self.accept_word("save") {
            let mut names = Vec::new();
            if self.accept(&TokenKind::Star) {
                names.push("*".to_string());
            } else {
                loop {
                    names.push(self.ident()?);
                    if !self.accept(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(TokenKind::Dot)?;
            return Ok(BlockItem::Decl(Declaration::Save(names)));
        }
        if self.accept_word("ignore") {
            let mut names = vec![self.ident()?];
            while self.accept(&TokenKind::Comma) {
                names.push(self.ident()?);
            }
            self.expect(TokenKind::Dot)?;
            return Ok(BlockItem::Decl(Declaration::Ignore(names)));
        }
        if self.accept_word("internal") {
            self.expect(TokenKind::Dot)?;
            return Ok(BlockItem::Decl(Declaration::Internal));
        }
        if self.accept_word("event") {
            let mut names = vec![self.ident()?];
            while self.accept(&TokenKind::Comma) {
                names.push(self.ident()?);
            }
            self.expect(TokenKind::Dot)?;
            return Ok(BlockItem::Decl(Declaration::Event(names)));
        }
        if self.accept_word("priority") {
            let higher = self.ident()?;
            self.expect(TokenKind::Gt)?;
            let lower = self.ident()?;
            self.expect(TokenKind::Dot)?;
            return Ok(BlockItem::Decl(Declaration::Priority { higher, lower }));
        }
        if self.accept_word("hold") {
            let name = self.ident()?;
            self.expect(TokenKind::Dot)?;
            return Ok(BlockItem::Decl(Declaration::Hold(name)));
        }
        if self.accept_word("stream") {
            let ty = self.ident()?;
            let from = self.endpoint()?;
            self.expect(TokenKind::Arrow)?;
            let to = self.endpoint()?;
            self.expect(TokenKind::Dot)?;
            return Ok(BlockItem::Decl(Declaration::Stream { ty, from, to }));
        }
        if self.at_ident("auto") || self.at_ident("process") {
            let line = self.line();
            let auto = self.accept_word("auto");
            if !self.accept_word("process") {
                return Err(self.err("expected `process` after `auto`"));
            }
            let name = self.ident()?;
            if !self.accept_word("is") {
                return Err(self.err("expected `is` in process declaration"));
            }
            let ctor = self.ident()?;
            let args = if self.at(&TokenKind::LParen) {
                self.call_args()?
            } else {
                Vec::new()
            };
            self.expect(TokenKind::Dot)?;
            return Ok(BlockItem::Decl(Declaration::Process {
                auto,
                name,
                ctor,
                args,
                line,
            }));
        }
        // Otherwise: `label: body.`
        let line = self.line();
        let label = self.ident()?;
        self.expect(TokenKind::Colon)?;
        let body = self.action()?;
        self.expect(TokenKind::Dot)?;
        Ok(BlockItem::State(State { label, body, line }))
    }

    // ----------------------------------------------------------- actions

    /// Sequential composition: `a ; b ; c`.
    fn action(&mut self) -> MfResult<Action> {
        let first = self.action_atom()?;
        if !self.at(&TokenKind::Semi) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.accept(&TokenKind::Semi) {
            parts.push(self.action_atom()?);
        }
        Ok(Action::Seq(parts))
    }

    fn action_atom(&mut self) -> MfResult<Action> {
        if self.at(&TokenKind::LBrace) {
            return Ok(Action::Block(self.block()?));
        }
        self.nested(Self::action_atom_body)
    }

    fn action_atom_body(&mut self) -> MfResult<Action> {
        if self.at(&TokenKind::LParen) {
            self.bump();
            let mut parts = Vec::new();
            if !self.accept(&TokenKind::RParen) {
                loop {
                    parts.push(self.action()?);
                    if self.accept(&TokenKind::Comma) {
                        continue;
                    }
                    self.expect(TokenKind::RParen)?;
                    break;
                }
            }
            return Ok(Action::Group(parts));
        }
        if self.at(&TokenKind::Amp) {
            // A stream chain starting with a reference.
            return self.chain_action();
        }
        // Keyword-ish primaries.
        if self.accept_word("halt") {
            return Ok(Action::Halt);
        }
        if self.accept_word("preemptall") {
            return Ok(Action::PreemptAll);
        }
        if self.accept_word("post") {
            self.expect(TokenKind::LParen)?;
            let e = self.ident()?;
            self.expect(TokenKind::RParen)?;
            return Ok(Action::Post(e));
        }
        if self.accept_word("raise") {
            self.expect(TokenKind::LParen)?;
            let e = self.ident()?;
            self.expect(TokenKind::RParen)?;
            return Ok(Action::Raise(e));
        }
        if self.accept_word("terminated") {
            self.expect(TokenKind::LParen)?;
            let p = self.ident()?;
            self.expect(TokenKind::RParen)?;
            return Ok(Action::Terminated(p));
        }
        if self.accept_word("MES") {
            self.expect(TokenKind::LParen)?;
            let msg = match self.bump() {
                TokenKind::Str(s) => s,
                other => return Err(self.err(&format!("MES expects a string, got {other:?}"))),
            };
            self.expect(TokenKind::RParen)?;
            return Ok(Action::Mes(msg));
        }
        if self.accept_word("if") {
            self.expect(TokenKind::LParen)?;
            let lhs = self.expr()?;
            let op = match self.bump() {
                TokenKind::Lt => '<',
                TokenKind::Gt => '>',
                TokenKind::Eq => '=',
                other => return Err(self.err(&format!("bad comparison {other:?}"))),
            };
            let rhs = self.expr()?;
            self.expect(TokenKind::RParen)?;
            if !self.accept_word("then") {
                return Err(self.err("expected `then`"));
            }
            let then = Box::new(self.action_atom()?);
            let otherwise = if self.accept_word("else") {
                Some(Box::new(self.action_atom()?))
            } else {
                None
            };
            return Ok(Action::If {
                cond: Cond { lhs, op, rhs },
                then,
                otherwise,
            });
        }
        // Identifier-led: assignment, call, chain, or bare mention.
        let name = self.ident()?;
        if self.at(&TokenKind::Eq) {
            self.bump();
            let value = self.expr()?;
            return Ok(Action::Assign { name, value });
        }
        if self.at(&TokenKind::LParen) {
            let args = self.call_args()?;
            return Ok(Action::Call { name, args });
        }
        if self.at(&TokenKind::Arrow) || self.at_dot_port() {
            // A chain starting from a plain endpoint.
            let first = self.finish_endpoint(false, name)?;
            return self.chain_from(first);
        }
        Ok(Action::Mention(name))
    }

    /// Is the current position `.` followed by an identifier (a port
    /// selector rather than a statement terminator)?
    fn at_dot_port(&self) -> bool {
        self.at(&TokenKind::Dot)
            && matches!(self.peek_ahead(1), TokenKind::Ident(_))
            && self.peek_ahead(2) == &TokenKind::Arrow
    }

    fn chain_action(&mut self) -> MfResult<Action> {
        let first = self.endpoint()?;
        self.chain_from(first)
    }

    fn chain_from(&mut self, first: Endpoint) -> MfResult<Action> {
        let mut chain = vec![first];
        while self.accept(&TokenKind::Arrow) {
            chain.push(self.endpoint()?);
        }
        if chain.len() < 2 {
            return Err(self.err("stream chain needs at least two endpoints"));
        }
        Ok(Action::Chain(chain))
    }

    fn endpoint(&mut self) -> MfResult<Endpoint> {
        let is_ref = self.accept(&TokenKind::Amp);
        let process = self.ident()?;
        self.finish_endpoint(is_ref, process)
    }

    fn finish_endpoint(&mut self, is_ref: bool, process: String) -> MfResult<Endpoint> {
        // A `.port` selector — but only when a port name follows and the
        // dot is not the statement terminator.
        let port = if self.at(&TokenKind::Dot)
            && matches!(self.peek_ahead(1), TokenKind::Ident(_))
            && !matches!(self.peek_ahead(2), TokenKind::Colon)
        {
            self.bump();
            Some(self.ident()?)
        } else {
            None
        };
        Ok(Endpoint {
            is_ref,
            process,
            port,
        })
    }

    fn call_args(&mut self) -> MfResult<Vec<Expr>> {
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if self.accept(&TokenKind::RParen) {
            return Ok(args);
        }
        loop {
            args.push(self.expr()?);
            if self.accept(&TokenKind::Comma) {
                continue;
            }
            self.expect(TokenKind::RParen)?;
            break;
        }
        Ok(args)
    }

    fn expr(&mut self) -> MfResult<Expr> {
        let mut lhs = self.expr_primary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => '+',
                TokenKind::Minus => '-',
                _ => break,
            };
            self.bump();
            let rhs = self.expr_primary()?;
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn expr_primary(&mut self) -> MfResult<Expr> {
        self.nested(Self::expr_primary_body)
    }

    fn expr_primary_body(&mut self) -> MfResult<Expr> {
        match self.bump() {
            TokenKind::Int(v) => Ok(Expr::Int(v)),
            TokenKind::LParen => {
                let inner = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(inner)
            }
            TokenKind::Minus => {
                // Unary minus: negate the following primary.
                let inner = self.expr_primary()?;
                Ok(match inner {
                    Expr::Int(v) => Expr::Int(-v),
                    other => Expr::Binary {
                        op: '-',
                        lhs: Box::new(Expr::Int(0)),
                        rhs: Box::new(other),
                    },
                })
            }
            TokenKind::Amp => Ok(Expr::Ref(self.ident()?)),
            TokenKind::Ident(name) => {
                if self.at(&TokenKind::LParen) {
                    let args = self.call_args()?;
                    Ok(Expr::Call { name, args })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            other => Err(self.err(&format!("bad expression token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{MAINPROG_SOURCE, PROTOCOL_MW_SOURCE};

    #[test]
    fn parses_minimal_manner() {
        let src = "manner F(process p) { begin: halt. }";
        let prog = parse_program(src).unwrap();
        let (params, body, export) = prog.manner("F").unwrap();
        assert!(!export);
        assert_eq!(params.len(), 1);
        assert_eq!(body.state_labels(), vec!["begin"]);
        assert_eq!(body.state("begin").unwrap().body, Action::Halt);
    }

    #[test]
    fn parses_sequence_and_group() {
        let src = "manner F() { begin: a(); post (begin). }";
        let prog = parse_program(src).unwrap();
        let (_, body, _) = prog.manner("F").unwrap();
        match &body.state("begin").unwrap().body {
            Action::Seq(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[0], Action::Call { .. }));
                assert_eq!(parts[1], Action::Post("begin".into()));
            }
            other => panic!("expected Seq, got {other:?}"),
        }
    }

    #[test]
    fn parses_stream_chain_with_refs_and_ports() {
        let src = "manner F() { begin: &worker -> master -> worker -> master.dataport. }";
        let prog = parse_program(src).unwrap();
        let (_, body, _) = prog.manner("F").unwrap();
        match &body.state("begin").unwrap().body {
            Action::Chain(eps) => {
                assert_eq!(eps.len(), 4);
                assert!(eps[0].is_ref);
                assert_eq!(eps[0].process, "worker");
                assert_eq!(eps[3].port.as_deref(), Some("dataport"));
            }
            other => panic!("expected Chain, got {other:?}"),
        }
    }

    #[test]
    fn parses_if_then_else() {
        let src = "manner F() { death: t = t + 1; \
                    if (t < now) then ( post (begin) ) else ( post (end) ). }";
        let prog = parse_program(src).unwrap();
        let (_, body, _) = prog.manner("F").unwrap();
        match &body.state("death").unwrap().body {
            Action::Seq(parts) => match &parts[1] {
                Action::If {
                    cond, otherwise, ..
                } => {
                    assert_eq!(cond.op, '<');
                    assert!(otherwise.is_some());
                }
                other => panic!("expected If, got {other:?}"),
            },
            other => panic!("expected Seq, got {other:?}"),
        }
    }

    #[test]
    fn parses_paper_protocol_mw() {
        let prog = parse_program(PROTOCOL_MW_SOURCE).unwrap();
        // Both manners present, ProtocolMW exported.
        let (params, pool, _) = prog.manner("Create_Worker_Pool").unwrap();
        assert_eq!(params.len(), 2);
        let (_, proto, export) = prog.manner("ProtocolMW").unwrap();
        assert!(export);
        assert_eq!(
            proto.state_labels(),
            vec!["begin", "create_pool", "finished"]
        );
        assert_eq!(
            pool.state_labels(),
            vec!["begin", "create_worker", "rendezvous", "end"]
        );
        // `begin: terminated(master).`
        assert_eq!(
            proto.state("begin").unwrap().body,
            Action::Terminated("master".into())
        );
        // The rendezvous state is a nested block with begin + death_worker.
        match &pool.state("rendezvous").unwrap().body {
            Action::Block(b) => {
                assert_eq!(b.state_labels(), vec!["begin", "death_worker"]);
            }
            other => panic!("expected Block, got {other:?}"),
        }
        // The create_worker state declares the KK stream.
        match &pool.state("create_worker").unwrap().body {
            Action::Block(b) => {
                assert!(b.declarations.iter().any(|d| matches!(
                    d,
                    Declaration::Stream { ty, .. } if ty == "KK"
                )));
                assert!(b
                    .declarations
                    .iter()
                    .any(|d| matches!(d, Declaration::Hold(h) if h == "worker")));
            }
            other => panic!("expected Block, got {other:?}"),
        }
        // Declarations: save *, ignore death, two variables, the local
        // event, the priority rule.
        assert!(pool
            .declarations
            .iter()
            .any(|d| matches!(d, Declaration::Save(v) if v == &vec!["*".to_string()])));
        assert!(pool.declarations.iter().any(|d| matches!(
            d,
            Declaration::Priority { higher, lower }
                if higher == "create_worker" && lower == "rendezvous"
        )));
        let vars: Vec<&String> = pool
            .declarations
            .iter()
            .filter_map(|d| match d {
                Declaration::Process { name, ctor, .. } if ctor == "variable" => Some(name),
                _ => None,
            })
            .collect();
        assert_eq!(vars, vec!["now", "t"]);
    }

    #[test]
    fn parses_paper_mainprog() {
        let prog = parse_program(MAINPROG_SOURCE).unwrap();
        match prog.manifold("Worker").unwrap() {
            Item::Manifold { atomic, params, .. } => {
                assert!(atomic);
                assert_eq!(params.len(), 1);
            }
            _ => unreachable!(),
        }
        match prog.manifold("Master").unwrap() {
            Item::Manifold {
                atomic,
                ports,
                atomic_events,
                ..
            } => {
                assert!(atomic);
                assert_eq!(ports.len(), 4);
                assert!(ports.iter().any(|p| p.name == "dataport" && p.is_input));
                assert_eq!(
                    atomic_events,
                    &vec![
                        "create_pool".to_string(),
                        "create_worker".into(),
                        "rendezvous".into(),
                        "a_rendezvous".into(),
                        "finished".into()
                    ]
                );
            }
            _ => unreachable!(),
        }
        match prog.manifold("Main").unwrap() {
            Item::Manifold { body: Some(b), .. } => {
                // begin: ProtocolMW(Master(argv), Worker).
                match &b.state("begin").unwrap().body {
                    Action::Call { name, args } => {
                        assert_eq!(name, "ProtocolMW");
                        assert_eq!(args.len(), 2);
                        assert!(matches!(&args[0], Expr::Call { name, .. } if name == "Master"));
                        assert_eq!(args[1], Expr::Var("Worker".into()));
                    }
                    other => panic!("expected Call, got {other:?}"),
                }
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn reports_error_with_line() {
        let err = parse_program("manner F() { begin halt. }").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 1"), "{msg}");
    }

    /// A manner whose `begin` state nests each recursive production
    /// `depth` levels deep, on line 2: action groups, `{` blocks,
    /// parenthesised expressions and unary minus.
    fn nested_sources(depth: usize) -> Vec<String> {
        let manner = |body: String| format!("manner F() {{\n begin: {body}. }}");
        vec![
            manner(format!("{}halt{}", "(".repeat(depth), ")".repeat(depth))),
            manner(format!(
                "{}halt{}",
                "{ s: ".repeat(depth),
                ". }".repeat(depth)
            )),
            manner(format!("x = {}1{}", "(".repeat(depth), ")".repeat(depth))),
            manner(format!("x = {}1", "- ".repeat(depth))),
        ]
    }

    #[test]
    fn nesting_past_the_limit_is_a_diagnosed_error_not_a_stack_overflow() {
        for depth in [MAX_NESTING, 100_000] {
            for src in nested_sources(depth) {
                let err = parse_program(&src).unwrap_err();
                assert_eq!(
                    err,
                    MfError::Lang(LangError::at(LangErrorKind::RecursionLimitExceeded, 2)),
                    "{}",
                    &src[..40]
                );
            }
        }
        // Just inside the limit, every kind still parses; so do the
        // paper's sources.
        for src in nested_sources(MAX_NESTING - 8) {
            parse_program(&src).unwrap();
        }
        parse_program(PROTOCOL_MW_SOURCE).unwrap();
        parse_program(MAINPROG_SOURCE).unwrap();
    }

    #[test]
    fn idle_macro_becomes_terminated_void() {
        let src = "#define IDLE terminated (void)\nmanner F() { begin: (preemptall, IDLE). }";
        let prog = parse_program(src).unwrap();
        let (_, body, _) = prog.manner("F").unwrap();
        assert_eq!(
            body.state("begin").unwrap().body,
            Action::Group(vec![Action::PreemptAll, Action::Terminated("void".into())])
        );
    }
}
